package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"roadsocial/client"
	"roadsocial/internal/domgraph"
	"roadsocial/internal/geom"
	"roadsocial/internal/mac"
	"roadsocial/internal/mutate"
	"roadsocial/internal/road"
	"roadsocial/internal/social"
)

// span is one timed interval: a name, its op, the span that caused it (-1
// for a root) and its bounds since the tracer's epoch.
type span struct {
	Name   string        `json:"name"`
	Op     int           `json:"op"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// sdkSpanName names the span of an SDK call.
func sdkSpanName(k opKind) string {
	if k == opWrite {
		return "sdk.write"
	}
	return "sdk.read"
}

func (s span) ms() float64 { return float64(s.End-s.Start) / float64(time.Millisecond) }

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, op, parent int) int {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// timed runs f inside a span.
func (t *tracer) timed(name string, op, parent int, f func()) {
	id := t.begin(name, op, parent)
	f()
	t.end(id)
}

// serverPhases adds the Server-Timing phases of an SDK call as its
// children, laid end to end from the call's start: the server reports
// durations only, and they happened in this order inside the call.
func (t *tracer) serverPhases(parent, op int, ms [4]float64) {
	names := [4]string{"service.queue", "service.prepare", "service.search", "service.encode"}
	t.mu.Lock()
	defer t.mu.Unlock()
	at, end := t.spans[parent].Start, t.spans[parent].End
	for i, d := range ms {
		next := min(at+time.Duration(d*float64(time.Millisecond)), end)
		t.spans = append(t.spans, span{Name: names[i], Op: op, Parent: parent, Start: at, End: next})
		at = next
	}
}

// durations lists the durations of the named spans, in milliseconds.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}

// selfTimes lists, for the named spans, the duration minus the part their
// children cover, in milliseconds.
func (t *tracer) selfTimes(name string) []float64 {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	var out []float64
	for i, s := range t.spans {
		if s.Name == name {
			self := s.End - s.Start - child[i]
			out = append(out, float64(max(self, 0))/float64(time.Millisecond))
		}
	}
	return out
}

// nested reports the first span that does not lie inside its parent.
func (t *tracer) nested() error {
	for i, s := range t.spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		p := t.spans[s.Parent]
		if s.Start < p.Start || s.End > p.End || s.Op != p.Op {
			return fmt.Errorf("span %d (%s, op %d) lies outside its parent %d (%s, op %d)",
				i, s.Name, s.Op, s.Parent, p.Name, p.Op)
		}
	}
	return nil
}

// writeTrace writes both span sets, one JSON object per line, once the run
// has ended.
func writeTrace(cfg config, sets ...*tracer) error {
	path := filepath.Join(cfg.state, "traces", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for set, t := range sets {
		for _, s := range t.spans {
			if err := enc.Encode(struct {
				Set int `json:"set"`
				span
			}{set, s}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayed is the in-process replay of a traced phase against the library
// layers: its spans, how many ops it covered, and how many library outputs
// disagreed with the service's.
type replayed struct {
	tracer     *tracer
	ops        int
	mismatches int
	notes      []string
}

// replayBudget bounds the replay's wall time: it covers the longest op
// prefix that fits.
func replayBudget(cfg config) time.Duration {
	return min(time.Duration(cfg.seconds*float64(time.Second)), 30*time.Second)
}

// replay re-runs the traced phase's ops, in op order, against the library
// layers on the same network and versions the service used. Reads time the
// G-tree range query, the core peel, Engine.Prepare, and for searches a
// domgraph.Build when the region is new to the family's prepared state and
// Prepared.Search. Writes time the incremental core and truss maintenance
// of their edges, mutate.Apply, the journal append with its fsync, and
// Engine.Prepare of each standing query the write matches.
func replay(cfg config, in *inputs, p *phase, dir string) *replayed {
	rp := &replayed{tracer: newTracer()}
	tr := rp.tracer
	net := in.net
	var st *mutate.State
	var journal *mutate.Journal
	var standing [][]int32 // live: the library's membership of each standing query
	if p.rig.warmWrite != nil {
		st = mutate.InitState(net.Social, 0)
		var err error
		if net, _, err = mutate.Apply(net, st, opsOf(p.rig.warmWrite)); err != nil {
			rp.mismatch("replay warm-up write: %v", err)
			return rp
		}
		if journal, _, err = mutate.OpenJournal(filepath.Join(dir, "replay.journal"), st.Version); err != nil {
			rp.mismatch("open replay journal: %v", err)
			return rp
		}
		defer journal.Close()
		for _, f := range in.families {
			members, err := mac.KTCore(net, f.q, f.k, f.t)
			if err != nil && !errors.Is(err, mac.ErrNoCommunity) {
				rp.mismatch("standing baseline: %v", err)
				return rp
			}
			standing = append(standing, members)
		}
	}
	eng, err := mac.EngineFor(mac.VariantCore)
	if err != nil {
		rp.mismatch("%v", err)
		return rp
	}
	prepared := map[int]*mac.Prepared{}
	regions := map[int][]string{} // per family, region keys in LRU order
	deadline := time.Now().Add(replayBudget(cfg))
	for _, r := range p.recs {
		if time.Now().After(deadline) {
			break
		}
		if r.status != 0 {
			continue
		}
		o := &in.ops[r.op]
		root := tr.begin("replay", r.op, -1)
		if o.kind == opWrite {
			net = rp.write(tr, root, r, o, net, st, journal, in.families, standing, eng)
		} else {
			rp.read(tr, root, r, o, net, eng, prepared, regions)
		}
		tr.end(root)
		rp.ops++
	}
	return rp
}

func (rp *replayed) mismatch(format string, args ...any) {
	rp.mismatches++
	if len(rp.notes) < 5 {
		rp.notes = append(rp.notes, fmt.Sprintf(format, args...))
	}
}

// read replays one read op and compares the library's answer with the
// service's.
func (rp *replayed) read(tr *tracer, root int, r *rec, o *op, net *mac.Network, eng mac.Engine,
	prepared map[int]*mac.Prepared, regions map[int][]string) {
	gt, ok := net.Oracle.(*road.GTree)
	if !ok {
		rp.mismatch("network oracle is %T, not a G-tree", net.Oracle)
		return
	}
	qlocs := make([]road.Location, len(o.q))
	for i, v := range o.q {
		qlocs[i] = net.Locs[v]
	}
	var dq []float64
	var err error
	tr.timed("road.range", r.op, root, func() { dq, err = gt.QueryDistances(qlocs, net.Locs, o.t) })
	if err != nil {
		rp.mismatch("op %d range query: %v", r.op, err)
		return
	}
	allowed := make([]bool, len(dq))
	for v, d := range dq {
		allowed[v] = d <= o.t
	}
	tr.timed("social.core_peel", r.op, root, func() { net.Social.MaximalConnectedKCore(o.q, o.k, allowed) })
	region := zeroBox(net.Social.D())
	if o.kind == opSearch {
		region = o.box
	}
	q := &mac.Query{Q: o.q, K: o.k, T: o.t, Region: region, J: o.j, Parallelism: readRequest(o).Parallelism}
	var pp *mac.Prepared
	tr.timed("mac.prepare", r.op, root, func() { pp, err = eng.Prepare(net, q) })
	if errors.Is(err, mac.ErrNoCommunity) {
		if r.size != 0 {
			rp.mismatch("op %d: library finds no community, service answered %d", r.op, r.size)
		}
		return
	}
	if err != nil {
		rp.mismatch("op %d prepare: %v", r.op, err)
		return
	}
	if o.kind == opKTCore {
		if m := pp.Members(); len(m) != r.size || digestMembers(m) != r.digest {
			rp.mismatch("op %d: library core of %d members differs from the service's %d at version %d",
				r.op, len(m), r.size, r.version)
		}
		return
	}
	// Searches run on the family's long-lived prepared state, as the
	// service's cache keeps it; a region new to its 8-entry LRU pays a
	// domgraph build, timed here on its own.
	fp := prepared[o.fam]
	if fp == nil {
		fp = pp
		prepared[o.fam] = pp
	}
	key := fmt.Sprintf("%v/%v", o.box.Lo, o.box.Hi)
	lru := regions[o.fam]
	hit := false
	for i, k := range lru {
		if k == key {
			lru = append(append(lru[:i:i], lru[i+1:]...), key)
			hit = true
			break
		}
	}
	if !hit {
		members := fp.Members()
		vecs := make([][]float64, len(members))
		for i, v := range members {
			vecs[i] = net.Social.Attrs(int(v))
		}
		tr.timed("domgraph.build", r.op, root, func() { domgraph.Build(o.box, members, vecs, 0) })
		lru = append(lru, key)
		if len(lru) > 8 {
			lru = lru[1:]
		}
	}
	regions[o.fam] = lru
	opts := mac.SearchOptions{Mode: mac.ModeGlobal}
	if o.algo == client.AlgoLocal {
		opts.Mode = mac.ModeLocal
	}
	var res *mac.Result
	tr.timed("mac.search", r.op, root, func() { res, err = fp.Search(q, opts) })
	if err != nil {
		rp.mismatch("op %d search: %v", r.op, err)
		return
	}
	cells := make([]client.CellJSON, len(res.Cells))
	for i, c := range res.Cells {
		cells[i].Ranked = make([][]int32, len(c.Ranked))
		for j, comm := range c.Ranked {
			cells[i].Ranked[j] = comm
		}
		if c.Cell != nil {
			cells[i].Witness = c.Cell.Witness()
		}
	}
	if d := digestAnswer(digestCells(cells)); d != r.digest || len(cells) != r.size {
		rp.mismatch("op %d: library search of %d cells differs from the service's %d", r.op, len(cells), r.size)
	}
}

// write replays one mutation batch and returns the network after it.
func (rp *replayed) write(tr *tracer, root int, r *rec, o *op, net *mac.Network, st *mutate.State,
	journal *mutate.Journal, fams []family, standing [][]int32, eng mac.Engine) *mac.Network {
	ops := opsOf(o.write)
	// Incremental maintenance of each edge, on copies of the state, so the
	// apply below starts from the committed state.
	core := append([]int(nil), st.Core...)
	truss := make(map[int64]int, len(st.Truss))
	for k, v := range st.Truss {
		truss[k] = v
	}
	g := net.Social
	for _, x := range ops {
		var err error
		var next *social.Graph
		switch x.Kind {
		case mutate.InsertEdge:
			next, err = g.WithEdge(int(x.U), int(x.V))
		case mutate.DeleteEdge:
			next, err = g.WithoutEdge(int(x.U), int(x.V))
		default:
			continue
		}
		if err != nil {
			rp.mismatch("op %d edge: %v", r.op, err)
			return net
		}
		insert := x.Kind == mutate.InsertEdge
		tr.timed("social.core_maint", r.op, root, func() {
			if insert {
				next.IncrementalCoreInsert(core, x.U, x.V)
			} else {
				next.IncrementalCoreDelete(core, x.U, x.V)
			}
		})
		tr.timed("social.truss_maint", r.op, root, func() {
			if insert {
				next.IncrementalTrussInsert(truss, x.U, x.V)
			} else {
				next.IncrementalTrussDelete(truss, x.U, x.V)
			}
		})
		g = next
	}
	base := st.Version
	var out *mac.Network
	var sum *mutate.Summary
	var err error
	tr.timed("mutate.apply", r.op, root, func() { out, sum, err = mutate.Apply(net, st, ops) })
	if err != nil {
		rp.mismatch("op %d apply: %v", r.op, err)
		return net
	}
	if st.Version != r.mut.Version || sum.CoreChanged != r.mut.CoreChanged || sum.TrussChanged != r.mut.TrussChanged {
		rp.mismatch("op %d: library write at version %d changed %d/%d, service %d changed %d/%d",
			r.op, st.Version, sum.CoreChanged, sum.TrussChanged, r.mut.Version, r.mut.CoreChanged, r.mut.TrussChanged)
	}
	recs := make([]mutate.Record, len(ops))
	for i, x := range ops {
		recs[i] = mutate.Record{Version: base + uint64(i) + 1, Op: x}
	}
	tr.timed("mutate.journal", r.op, root, func() { err = journal.Append(recs) })
	if err != nil {
		rp.mismatch("op %d journal: %v", r.op, err)
	}
	touched := sum.StructTouched()
	for i, f := range fams {
		if !(f.k <= sum.CoreBound || intersects(standing[i], touched)) {
			continue
		}
		var pp *mac.Prepared
		tr.timed("standing.eval", r.op, root, func() {
			pp, err = eng.Prepare(out, &mac.Query{Q: f.q, K: f.k, T: f.t, Region: zeroBox(out.Social.D())})
		})
		switch {
		case errors.Is(err, mac.ErrNoCommunity):
			standing[i] = nil
		case err != nil:
			rp.mismatch("op %d standing eval: %v", r.op, err)
		default:
			standing[i] = pp.Members()
		}
	}
	return out
}

func intersects(members []int32, touched map[int32]bool) bool {
	for _, v := range members {
		if touched[v] {
			return true
		}
	}
	return false
}

// zeroBox is the degenerate region the service uses for ktcore requests.
func zeroBox(d int) *geom.Region {
	zero := make([]float64, d-1)
	r, _ := geom.NewBox(zero, zero)
	return r
}
