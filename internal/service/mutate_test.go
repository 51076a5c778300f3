package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"roadsocial/internal/road"
)

// doJSON issues a request with a JSON body on an arbitrary method (POST has
// a stdlib helper, DELETE does not) and decodes the JSON answer.
func doJSON(t testing.TB, method, url string, body []byte) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode %s %s: %v", method, url, err)
	}
	return resp.StatusCode, out
}

// freshEdge finds a vertex pair that is not an edge of the network — safe to
// insert without colliding with the generator's output.
func freshEdge(t testing.TB, s *Server, name string) (int32, int32) {
	t.Helper()
	e, err := s.network(name)
	if err != nil {
		t.Fatal(err)
	}
	sg := e.net.Social
	for u := 0; u < sg.N(); u++ {
		for v := u + 2; v < sg.N(); v += 17 {
			if !sg.HasEdge(u, v) {
				return int32(u), int32(v)
			}
		}
	}
	t.Fatal("no missing edge in test network")
	return 0, 0
}

// TestHTTPMutateValidationAndVersioning: the write endpoints validate their
// input, each applied op bumps the dataset version by exactly one, and the
// applied-op counter reaches /v1/stats and /metrics with a mutate route in
// the keyed histograms.
func TestHTTPMutateValidationAndVersioning(t *testing.T) {
	net, _, _, _ := testNetwork(t)
	s := New(Config{})
	if err := s.AddDataset("test", net); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	edges := ts.URL + "/v1/datasets/test/edges"
	u, v := freshEdge(t, s, "test")

	bad := []struct {
		name   string
		method string
		url    string
		body   string
		want   int
	}{
		{"unknown dataset", "POST", ts.URL + "/v1/datasets/nope/edges",
			fmt.Sprintf(`{"inserts":[[%d,%d]]}`, u, v), http.StatusNotFound},
		{"empty batch", "POST", edges, `{}`, http.StatusBadRequest},
		{"unknown field", "POST", edges, `{"upserts":[[1,2]]}`, http.StatusBadRequest},
		{"garbage", "POST", edges, `{`, http.StatusBadRequest},
		{"self loop", "POST", edges, `{"inserts":[[3,3]]}`, http.StatusBadRequest},
		{"out of range", "POST", edges, `{"inserts":[[0,1000000]]}`, http.StatusBadRequest},
		{"delete missing edge", "POST", edges, fmt.Sprintf(`{"deletes":[[%d,%d]]}`, u, v), http.StatusBadRequest},
		{"attrs without vector", "POST", edges, `{"attrs":[{"user":1}]}`, http.StatusBadRequest},
		{"move unknown user", "POST", edges, `{"moves":[{"user":1000000,"vertex":0}]}`, http.StatusBadRequest},
		{"inserts on DELETE", "DELETE", edges, fmt.Sprintf(`{"inserts":[[%d,%d]]}`, u, v), http.StatusBadRequest},
		{"moves on DELETE", "DELETE", edges, `{"moves":[{"user":1,"vertex":0}]}`, http.StatusBadRequest},
	}
	for _, tc := range bad {
		if status, res := doJSON(t, tc.method, tc.url, []byte(tc.body)); status != tc.want {
			t.Fatalf("%s: status %d (%v), want %d", tc.name, status, res, tc.want)
		}
	}
	// Nothing above may have applied or bumped the version.
	if got := s.Stats().Mutations; got != 0 {
		t.Fatalf("mutations after rejected batches = %d, want 0", got)
	}

	// A failing op mid-batch rejects the whole batch: the insert below is
	// valid on its own, but the duplicate insert after it must roll it back.
	status, res := doJSON(t, "POST", edges,
		[]byte(fmt.Sprintf(`{"inserts":[[%d,%d],[%d,%d]]}`, u, v, u, v)))
	if status != http.StatusBadRequest {
		t.Fatalf("duplicate insert batch: status %d (%v), want 400", status, res)
	}

	// version 0 → 1: single insert.
	status, res = doJSON(t, "POST", edges, []byte(fmt.Sprintf(`{"inserts":[[%d,%d]]}`, u, v)))
	if status != http.StatusOK {
		t.Fatalf("insert: status %d (%v)", status, res)
	}
	if res["version"] != float64(1) || res["applied"] != float64(1) {
		t.Fatalf("insert: version %v applied %v, want 1/1", res["version"], res["applied"])
	}
	// version 1 → 4: delete + attrs + move in one batch, one bump per op.
	batch := fmt.Sprintf(`{"deletes":[[%d,%d]],"attrs":[{"user":%d,"attrs":[0.1,0.2,0.3]}],"moves":[{"user":%d,"vertex":0}]}`, u, v, u, v)
	status, res = doJSON(t, "POST", edges, []byte(batch))
	if status != http.StatusOK {
		t.Fatalf("batch: status %d (%v)", status, res)
	}
	if res["version"] != float64(4) || res["applied"] != float64(3) {
		t.Fatalf("batch: version %v applied %v, want 4/3", res["version"], res["applied"])
	}
	// version 4 → 6 through the DELETE-only form (insert first so it exists).
	if status, res = doJSON(t, "POST", edges, []byte(fmt.Sprintf(`{"inserts":[[%d,%d]]}`, u, v))); status != http.StatusOK {
		t.Fatalf("re-insert: status %d (%v)", status, res)
	}
	status, res = doJSON(t, "DELETE", edges, []byte(fmt.Sprintf(`{"deletes":[[%d,%d]]}`, u, v)))
	if status != http.StatusOK {
		t.Fatalf("DELETE form: status %d (%v)", status, res)
	}
	if res["version"] != float64(6) {
		t.Fatalf("DELETE form: version %v, want 6", res["version"])
	}

	// A search against the mutated dataset reports the pinned version.
	_, q, k, tt := testNetwork(t)
	status, sres := postJSON(t, ts.URL+"/v1/datasets/test/search", searchBody(t, "test", q, k, tt, nil))
	if status != http.StatusOK {
		t.Fatalf("search after mutations: status %d (%v)", status, sres)
	}
	if sres["version"] != float64(6) {
		t.Fatalf("search version = %v, want 6", sres["version"])
	}

	// The applied counter reaches /v1/stats and /metrics, and the mutate
	// route shows up in the keyed histogram registry.
	if got := s.Stats().Mutations; got != 6 {
		t.Fatalf("stats mutations = %d, want 6", got)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(prom)
	if !strings.Contains(text, "macserver_mutations_total 6") {
		t.Fatalf("/metrics lacks macserver_mutations_total 6")
	}
	if !strings.Contains(text, `route="mutate"`) {
		t.Fatalf("/metrics lacks a route=\"mutate\" histogram series")
	}
}

// TestMutateInvalidatesSelectively: a mutation drops exactly the prepared
// states it can have falsified. Attribute-only updates never drop a ready
// entry — membership depends only on structure and distances, so an update
// outside the community leaves the entry untouched and one inside it is
// rebased in place (affected preference regions pruned, the entry kept warm)
// — and negative (no-community) entries survive them too, since attributes
// cannot create a community. Structural mutations still drop negatives.
func TestMutateInvalidatesSelectively(t *testing.T) {
	net, q, k, tt := testNetwork(t)
	s := New(Config{})
	if err := s.AddDataset("test", net); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	edges := ts.URL + "/v1/datasets/test/edges"

	// Prepare and warm one community; learn its membership.
	body, _ := json.Marshal(map[string]any{"dataset": "test", "q": q, "k": k, "t": tt})
	status, res := postJSON(t, ts.URL+"/v1/datasets/test/ktcore", body)
	if status != http.StatusOK {
		t.Fatalf("ktcore: status %d (%v)", status, res)
	}
	members := map[int32]bool{}
	for _, m := range res["ktcore"].([]any) {
		members[int32(m.(float64))] = true
	}
	var inside, outside int32 = -1, -1
	for v := 0; v < net.Social.N(); v++ {
		if members[int32(v)] {
			inside = int32(v)
		} else if outside < 0 {
			outside = int32(v)
		}
	}
	if inside < 0 || outside < 0 {
		t.Fatalf("community covers the whole graph (size %d)", len(members))
	}

	// Attribute update outside the community: no touched member, no core
	// bound (attrs move nobody) — the prepared entry must survive.
	status, res = doJSON(t, "POST", edges,
		[]byte(fmt.Sprintf(`{"attrs":[{"user":%d,"attrs":[0.5,0.5,0.5]}]}`, outside)))
	if status != http.StatusOK {
		t.Fatalf("outside attrs: status %d (%v)", status, res)
	}
	if res["invalidated"] != float64(0) {
		t.Fatalf("outside attrs invalidated %v entries, want 0", res["invalidated"])
	}
	status, warm := postJSON(t, ts.URL+"/v1/datasets/test/search", searchBody(t, "test", q, k, tt, nil))
	if status != http.StatusOK || warm["cache"] != CacheHit {
		t.Fatalf("search after disjoint mutation: status %d cache %v, want 200 hit", status, warm["cache"])
	}

	// Cache a negative entry: an infeasible k caches ErrNoCommunity.
	infeasible := searchBody(t, "test", q, 64, tt, nil)
	if status, res = postJSON(t, ts.URL+"/v1/datasets/test/search", infeasible); status != http.StatusOK || res["no_community"] != true {
		t.Fatalf("infeasible search: status %d (%v), want no_community", status, res)
	}
	if status, res = postJSON(t, ts.URL+"/v1/datasets/test/search", infeasible); status != http.StatusOK || res["cache"] != CacheHit {
		t.Fatalf("repeat infeasible search: status %d cache %v, want hit", status, res["cache"])
	}

	// Attribute update inside the community: the member's weight vector moved,
	// but membership cannot change — the ready entry is rebased onto the new
	// network (pruning only the regions that saw the old vector) and stays
	// warm, and the negative entry survives an attribute-only batch outright.
	status, res = doJSON(t, "POST", edges,
		[]byte(fmt.Sprintf(`{"attrs":[{"user":%d,"attrs":[0.5,0.5,0.5]}]}`, inside)))
	if status != http.StatusOK {
		t.Fatalf("inside attrs: status %d (%v)", status, res)
	}
	if res["invalidated"] != float64(0) {
		t.Fatalf("inside attrs invalidated %v entries, want 0 (entry rebased, not dropped)", res["invalidated"])
	}
	if status, res = postJSON(t, ts.URL+"/v1/datasets/test/search", searchBody(t, "test", q, k, tt, nil)); status != http.StatusOK || res["cache"] != CacheHit {
		t.Fatalf("search after member attr update: status %d cache %v, want 200 hit (rebased entry)", status, res["cache"])
	}
	if status, res = postJSON(t, ts.URL+"/v1/datasets/test/search", infeasible); status != http.StatusOK || res["cache"] != CacheHit {
		t.Fatalf("infeasible search after attr update: status %d cache %v, want hit (negatives survive attr-only batches)", status, res["cache"])
	}

	// A structural mutation can create a community where none existed: the
	// negative entry must drop now.
	u, v := freshEdge(t, s, "test")
	if status, res = doJSON(t, "POST", edges, []byte(fmt.Sprintf(`{"inserts":[[%d,%d]]}`, u, v))); status != http.StatusOK {
		t.Fatalf("structural insert: status %d (%v)", status, res)
	}
	if status, res = postJSON(t, ts.URL+"/v1/datasets/test/search", infeasible); status != http.StatusOK || res["cache"] != CacheMiss {
		t.Fatalf("infeasible search after structural mutation: status %d cache %v, want miss", status, res["cache"])
	}
}

// TestMutateVersionPinning: a search in flight across a mutation keeps the
// network and version it resolved — it reports the pre-mutation version even
// though it completes after the install, and its in-flight cache entry is
// dropped so the next request rebuilds against the new network.
func TestMutateVersionPinning(t *testing.T) {
	net, q, k, tt := testNetwork(t)
	gate := &gateOracle{
		inner:   road.RangeQuerier{G: net.Road},
		gate:    make(chan struct{}),
		started: make(chan struct{}, 8),
	}
	gated := *net
	gated.Oracle = gate
	s := New(Config{MaxInFlight: 4, DefaultTimeout: 30 * time.Second})
	if err := s.AddDataset("test", &gated); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type reply struct {
		status int
		body   map[string]any
	}
	done := make(chan reply, 1)
	go func() {
		status, body := postJSON(t, ts.URL+"/v1/datasets/test/search", searchBody(t, "test", q, k, tt, nil))
		done <- reply{status, body}
	}()
	<-gate.started // the search holds the pre-mutation network inside the oracle

	u, v := freshEdge(t, s, "test")
	status, res := doJSON(t, "POST", ts.URL+"/v1/datasets/test/edges",
		[]byte(fmt.Sprintf(`{"inserts":[[%d,%d]]}`, u, v)))
	if status != http.StatusOK {
		t.Fatalf("mutation: status %d (%v)", status, res)
	}
	if res["invalidated"] != float64(1) {
		t.Fatalf("mutation invalidated %v entries, want 1 (the in-flight build)", res["invalidated"])
	}

	close(gate.gate)
	r := <-done
	if r.status != http.StatusOK {
		t.Fatalf("pinned search: status %d (%v)", r.status, r.body)
	}
	if ver, ok := r.body["version"]; ok && ver != float64(0) {
		t.Fatalf("pinned search version = %v, want 0 (pre-mutation)", ver)
	}
	// The invalidated in-flight entry did not get cached: the repeat is a
	// miss against the post-mutation network, reporting the new version.
	status, res = postJSON(t, ts.URL+"/v1/datasets/test/search", searchBody(t, "test", q, k, tt, nil))
	if status != http.StatusOK || res["cache"] != CacheMiss {
		t.Fatalf("post-mutation search: status %d cache %v, want 200 miss", status, res["cache"])
	}
	if res["version"] != float64(1) {
		t.Fatalf("post-mutation search version = %v, want 1", res["version"])
	}
}

// normalizeSearch strips the per-run fields (latency, cache disposition,
// stage timings) so two runs of the same logical search compare byte-equal.
func normalizeSearch(t testing.TB, res map[string]any) []byte {
	t.Helper()
	delete(res, "elapsed_ms")
	delete(res, "cache")
	delete(res, "stats")
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMutateJournalReplayRestart: kill-and-restart durability. A server with
// a mutation log applies a batch of all four op kinds; a second server over
// the same log directory and the same base network replays the journal to
// the identical version, with byte-identical search results, and continues
// accepting mutations from that version.
func TestMutateJournalReplayRestart(t *testing.T) {
	net, q, k, tt := testNetwork(t)
	dir := t.TempDir()
	s1 := New(Config{MutationLogDir: dir})
	if err := s1.AddDataset("test", net); err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	u, v := freshEdge(t, s1, "test")
	var u2, v2 int32 = q[0], net.Social.Neighbors(int(q[0]))[0]

	batch := fmt.Sprintf(
		`{"inserts":[[%d,%d]],"deletes":[[%d,%d]],"attrs":[{"user":%d,"attrs":[0.9,0.1,0.4]}],"moves":[{"user":%d,"vertex":3}]}`,
		u, v, u2, v2, u, v)
	status, res := doJSON(t, "POST", ts1.URL+"/v1/datasets/test/edges", []byte(batch))
	if status != http.StatusOK {
		t.Fatalf("mutation: status %d (%v)", status, res)
	}
	if res["version"] != float64(4) {
		t.Fatalf("mutation version = %v, want 4", res["version"])
	}
	sbody := searchBody(t, "test", q, k, tt, nil)
	status, before := postJSON(t, ts1.URL+"/v1/datasets/test/search", sbody)
	if status != http.StatusOK {
		t.Fatalf("pre-restart search: status %d (%v)", status, before)
	}
	ts1.Close() // the "kill": the journal file survives on disk

	s2 := New(Config{MutationLogDir: dir})
	if err := s2.AddDataset("test", net); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	status, after := postJSON(t, ts2.URL+"/v1/datasets/test/search", sbody)
	if status != http.StatusOK {
		t.Fatalf("post-restart search: status %d (%v)", status, after)
	}
	if after["version"] != float64(4) {
		t.Fatalf("replayed version = %v, want 4", after["version"])
	}
	if b, a := normalizeSearch(t, before), normalizeSearch(t, after); !bytes.Equal(b, a) {
		t.Fatalf("search results diverge across restart:\n before %s\n after  %s", b, a)
	}
	// The replayed journal is the new base: further mutations continue the
	// version sequence and the replayed edge state is live (deleting the
	// replayed insert succeeds, re-deleting the replayed delete fails).
	edges2 := ts2.URL + "/v1/datasets/test/edges"
	if status, res = doJSON(t, "DELETE", edges2, []byte(fmt.Sprintf(`{"deletes":[[%d,%d]]}`, u2, v2))); status != http.StatusBadRequest {
		t.Fatalf("re-delete of replayed delete: status %d (%v), want 400", status, res)
	}
	status, res = doJSON(t, "DELETE", edges2, []byte(fmt.Sprintf(`{"deletes":[[%d,%d]]}`, u, v)))
	if status != http.StatusOK {
		t.Fatalf("delete of replayed insert: status %d (%v)", status, res)
	}
	if res["version"] != float64(5) {
		t.Fatalf("post-replay mutation version = %v, want 5", res["version"])
	}

	// A third restart folds both journal segments: version 5, edge (u,v)
	// gone again.
	ts2.Close()
	s3 := New(Config{MutationLogDir: dir})
	if err := s3.AddDataset("test", net); err != nil {
		t.Fatal(err)
	}
	ts3 := httptest.NewServer(s3.Handler())
	defer ts3.Close()
	status, res = postJSON(t, ts3.URL+"/v1/datasets/test/search", sbody)
	if status != http.StatusOK || res["version"] != float64(5) {
		t.Fatalf("second replay: status %d version %v, want 200/5", status, res["version"])
	}
}

// memberSet decodes a ktcore response's membership into a canonical string.
func memberSet(res map[string]any) string {
	raw, _ := res["ktcore"].([]any)
	ids := make([]int, 0, len(raw))
	for _, m := range raw {
		ids = append(ids, int(m.(float64)))
	}
	sort.Ints(ids)
	return fmt.Sprint(ids)
}

// TestConcurrentSearchesRacingMutations: searches race a mutator toggling a
// community edge, under -race. Every search must observe a consistent
// snapshot — its membership equals the community of SOME version (edge
// present or edge absent), never a torn mix, and the version it reports is
// one the dataset actually reached.
func TestConcurrentSearchesRacingMutations(t *testing.T) {
	net, q, k, tt := testNetwork(t)
	s := New(Config{MaxInFlight: 8, MaxQueue: 128, DefaultTimeout: 30 * time.Second})
	if err := s.AddDataset("test", net); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	edges := ts.URL + "/v1/datasets/test/edges"
	kbody, _ := json.Marshal(map[string]any{"dataset": "test", "q": q, "k": k, "t": tt})

	// The two legal worlds: community with the toggled edge present (the
	// seed state) and with it absent. The toggled edge connects two members.
	status, res := postJSON(t, ts.URL+"/v1/datasets/test/ktcore", kbody)
	if status != http.StatusOK {
		t.Fatalf("baseline ktcore: status %d (%v)", status, res)
	}
	withEdge := memberSet(res)
	members := map[int32]bool{}
	for _, m := range res["ktcore"].([]any) {
		members[int32(m.(float64))] = true
	}
	var mu, mv int32 = -1, -1
	for v := range members {
		for _, w := range net.Social.Neighbors(int(v)) {
			if members[w] {
				mu, mv = v, w
				break
			}
		}
		if mu >= 0 {
			break
		}
	}
	if mu < 0 {
		t.Fatal("no intra-community edge to toggle")
	}
	if status, res = doJSON(t, "DELETE", edges, []byte(fmt.Sprintf(`{"deletes":[[%d,%d]]}`, mu, mv))); status != http.StatusOK {
		t.Fatalf("probe delete: status %d (%v)", status, res)
	}
	status, res = postJSON(t, ts.URL+"/v1/datasets/test/ktcore", kbody)
	if status != http.StatusOK {
		t.Fatalf("probe ktcore: status %d (%v)", status, res)
	}
	withoutEdge := memberSet(res)
	if status, res = doJSON(t, "POST", edges, []byte(fmt.Sprintf(`{"inserts":[[%d,%d]]}`, mu, mv))); status != http.StatusOK {
		t.Fatalf("probe re-insert: status %d (%v)", status, res)
	}

	const toggles = 24
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // mutator: strict delete/insert alternation of one edge
		defer wg.Done()
		for i := 0; i < toggles; i++ {
			method, body := "DELETE", fmt.Sprintf(`{"deletes":[[%d,%d]]}`, mu, mv)
			if i%2 == 1 {
				method, body = "POST", fmt.Sprintf(`{"inserts":[[%d,%d]]}`, mu, mv)
			}
			if status, res := doJSON(t, method, edges, []byte(body)); status != http.StatusOK {
				t.Errorf("toggle %d: status %d (%v)", i, status, res)
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				status, res := postJSON(t, ts.URL+"/v1/datasets/test/ktcore", kbody)
				if status != http.StatusOK {
					t.Errorf("racing ktcore: status %d (%v)", status, res)
					return
				}
				got := memberSet(res)
				if got != withEdge && got != withoutEdge {
					t.Errorf("torn read at version %v: members %s match neither world\n with    %s\n without %s",
						res["version"], got, withEdge, withoutEdge)
					return
				}
				ver, _ := res["version"].(float64)
				if ver < 2 || ver > 2+toggles {
					t.Errorf("racing ktcore version = %v, outside [2,%d]", res["version"], 2+toggles)
					return
				}
			}
		}()
	}
	wg.Wait()

	// Quiesced: toggles was even, so the edge is back and the final answer
	// is the seed community at the final version.
	status, res = postJSON(t, ts.URL+"/v1/datasets/test/ktcore", kbody)
	if status != http.StatusOK {
		t.Fatalf("final ktcore: status %d (%v)", status, res)
	}
	if got := memberSet(res); got != withEdge {
		t.Fatalf("final members %s, want seed community %s", got, withEdge)
	}
	if res["version"] != float64(2+toggles) {
		t.Fatalf("final version = %v, want %d", res["version"], 2+toggles)
	}
}
