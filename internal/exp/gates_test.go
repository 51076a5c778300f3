package exp

import "testing"

// TestServiceGatesFailOnViolation builds, for every row of the invariant
// table, a record that satisfies it, then breaks it three ways: the
// comparison fails, the measured side is zero, and each metric it names is
// missing. Each broken record must fail the row.
func TestServiceGatesFailOnViolation(t *testing.T) {
	for _, g := range ServiceGates {
		t.Run(g.String(), func(t *testing.T) {
			if len(g.Scales) == 0 {
				t.Fatal("row gates at no scale")
			}
			if len(g.Scales) < len(allScales) && g.Skip == "" {
				t.Fatal("row skips a scale without saying why")
			}
			record := func(x float64) map[string]float64 {
				m := map[string]float64{g.X: x}
				if g.Y != "" {
					m[g.Y] = 10
				}
				return m
			}
			bound := g.B
			if g.Y != "" {
				bound += g.A * 10
			}
			good, bad := bound+1, bound
			if g.Less {
				good, bad = bound/2, bound
				if g.B > 0 {
					// Below B alone, so a missing Y read as 0 would pass.
					good = g.B / 2
				}
			}
			if detail, ok := g.Eval(record(good)); !ok {
				t.Fatalf("satisfying record fails: %s", detail)
			}
			if _, ok := g.Eval(record(bad)); ok {
				t.Errorf("%s = %g passes against bound %g", g.X, bad, bound)
			}
			if _, ok := g.Eval(record(0)); ok {
				t.Errorf("%s = 0 passes", g.X)
			}
			for _, name := range g.metrics() {
				m := record(good)
				delete(m, name)
				if detail, ok := g.Eval(m); ok {
					t.Errorf("record without %s passes (%s)", name, detail)
				}
			}
		})
	}
}

func TestGateString(t *testing.T) {
	for _, c := range []struct {
		g    Gate
		want string
	}{
		{below("a", "b"), "a < b"},
		{above("x", 1), "x > 1"},
		{Gate{X: "p99", Less: true, Y: "cold", A: 100, B: 250}, "p99 < 100·cold + 250"},
	} {
		if got := c.g.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}
