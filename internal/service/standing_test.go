package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"roadsocial/client"
	"roadsocial/internal/mac"
)

// waitEvent reads one event off a subscription with a deadline, failing the
// test on a closed channel or a timeout.
func waitEvent(t *testing.T, sub *client.Subscription) client.QueryEvent {
	t.Helper()
	select {
	case ev, ok := <-sub.Events():
		if !ok {
			t.Fatalf("subscription closed while waiting for an event (err: %v)", sub.Err())
		}
		return ev
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for a standing-query event")
		return client.QueryEvent{}
	}
}

// rawSSE opens the events stream without the SDK, so tests can assert the
// wire format itself (id lines, resume replay) and send Last-Event-ID values
// the SDK never would (an explicit 0 on a first connect, to replay the ring
// from its start). Returned events arrive on a channel fed by a reader
// goroutine; close the response body to end it.
type rawEvent struct {
	id   uint64
	name string
	ev   client.QueryEvent
}

func rawSSE(t *testing.T, url string, lastEventID string) (*http.Response, <-chan rawEvent) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set(client.HeaderLastEventID, lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("events stream: status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events stream content type %q, want text/event-stream", ct)
	}
	out := make(chan rawEvent, 16)
	go func() {
		defer close(out)
		sc := bufio.NewScanner(resp.Body)
		var cur rawEvent
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == "":
				if cur.name != "" {
					out <- cur
					cur = rawEvent{}
				}
			case strings.HasPrefix(line, ":"):
				// heartbeat
			case strings.HasPrefix(line, "id:"):
				cur.id, _ = strconv.ParseUint(strings.TrimSpace(line[len("id:"):]), 10, 64)
			case strings.HasPrefix(line, "event:"):
				cur.name = strings.TrimSpace(line[len("event:"):])
			case strings.HasPrefix(line, "data:"):
				if err := json.Unmarshal([]byte(strings.TrimSpace(line[len("data:"):])), &cur.ev); err != nil {
					return
				}
			}
		}
	}()
	return resp, out
}

func waitRaw(t *testing.T, ch <-chan rawEvent) rawEvent {
	t.Helper()
	select {
	case ev, ok := <-ch:
		if !ok {
			t.Fatal("raw SSE stream closed while waiting for an event")
		}
		return ev
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for a raw SSE event")
		return rawEvent{}
	}
}

// communityCut builds a delete batch severing one member's ties to the
// community — the member provably leaves the (k,t)-core, so the mutation
// must change the standing result.
func communityCut(t *testing.T, s *Server, name string, members []int32, avoid map[int32]bool) (int32, string) {
	t.Helper()
	e, err := s.network(name)
	if err != nil {
		t.Fatal(err)
	}
	in := map[int32]bool{}
	for _, m := range members {
		in[m] = true
	}
	for _, victim := range members {
		if avoid[victim] {
			continue
		}
		var cuts []string
		for _, w := range e.net.Social.Neighbors(int(victim)) {
			if in[w] {
				cuts = append(cuts, fmt.Sprintf("[%d,%d]", victim, w))
			}
		}
		if len(cuts) > 0 {
			return victim, fmt.Sprintf(`{"deletes":[%s]}`, strings.Join(cuts, ","))
		}
	}
	t.Fatal("no community member with intra-community edges to cut")
	return 0, ""
}

func contains32(a []int32, v int32) bool {
	for _, x := range a {
		if x == v {
			return true
		}
	}
	return false
}

// TestStandingQueryEndToEnd drives the whole subsystem over HTTP: register →
// initial snapshot; subscribe; a membership-changing mutation pushes a
// {version, joined, left} delta at the bumped version; an attribute-only
// mutation (provably irrelevant — membership never depends on attributes)
// triggers no re-evaluation, counter-asserted through /v1/stats and /metrics;
// Last-Event-ID resume replays exactly the missed events, no gap and no
// duplicate; DELETE pushes a terminal event and closes the stream.
func TestStandingQueryEndToEnd(t *testing.T) {
	net, q, k, tt := testNetwork(t)
	s := New(Config{})
	if err := s.AddDataset("test", net); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cli := client.New(ts.URL)
	ctx := context.Background()
	edges := ts.URL + "/v1/datasets/test/edges"

	// Register: 201 with the minted id and the initial snapshot at version 0.
	sq, err := cli.CreateStandingQuery(ctx, "test", &client.StandingQueryRequest{Q: q, K: k, T: tt})
	if err != nil {
		t.Fatalf("create standing query: %v", err)
	}
	if sq.ID != "sq-1" || sq.Dataset != "test" || sq.Version != 0 || len(sq.Members) == 0 || sq.NoCommunity {
		t.Fatalf("initial snapshot: %+v, want sq-1 on test at version 0 with members", sq)
	}
	for _, qv := range q {
		if !contains32(sq.Members, qv) {
			t.Fatalf("initial members %v lack query vertex %d", sq.Members, qv)
		}
	}
	list, err := cli.StandingQueries(ctx, "test")
	if err != nil || len(list.Queries) != 1 || list.Queries[0].ID != sq.ID {
		t.Fatalf("list = %+v (err %v), want the one registered query", list, err)
	}
	if got, err := cli.StandingQuery(ctx, "test", sq.ID); err != nil || got.K != k {
		t.Fatalf("get = %+v (err %v)", got, err)
	}

	sub, err := cli.Subscribe(ctx, "test", sq.ID, 0)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	defer sub.Close()

	// Sever one member's community ties: it must leave, and the delta must
	// arrive at the exact post-batch version.
	avoid := map[int32]bool{}
	for _, qv := range q {
		avoid[qv] = true
	}
	victim, batch := communityCut(t, s, "test", sq.Members, avoid)
	status, res := doJSON(t, "POST", edges, []byte(batch))
	if status != http.StatusOK {
		t.Fatalf("cut batch: status %d (%v)", status, res)
	}
	v1 := uint64(res["version"].(float64))

	ev := waitEvent(t, sub)
	if ev.ID != 1 {
		t.Fatalf("first delta id = %d, want 1", ev.ID)
	}
	if ev.Version != v1 || !ev.MembersChanged || !contains32(ev.Left, victim) {
		t.Fatalf("first delta %+v, want members_changed at version %d with %d in left", ev, v1, victim)
	}
	if len(ev.Joined) != 0 {
		t.Fatalf("delete-only batch joined %v members, want none", ev.Joined)
	}
	got, err := cli.StandingQuery(ctx, "test", sq.ID)
	if err != nil || got.Version != v1 || contains32(got.Members, victim) {
		t.Fatalf("post-delta resource %+v (err %v), want version %d without %d", got, err, v1, victim)
	}
	if n := s.Stats().StandingEvals; n != 1 {
		t.Fatalf("standing evals after first delta = %d, want 1", n)
	}

	// Attribute-only mutation on a current member: structurally irrelevant —
	// membership depends only on structure and distances — so no re-eval may
	// run. The next structural mutation's delta is the synchronization
	// barrier: once event 2 arrives, its eval has been counted, so an extra
	// attr-triggered eval would show as a third.
	status, res = doJSON(t, "POST", edges,
		[]byte(fmt.Sprintf(`{"attrs":[{"user":%d,"attrs":[0.9,0.9,0.9]}]}`, got.Members[0])))
	if status != http.StatusOK {
		t.Fatalf("attr batch: status %d (%v)", status, res)
	}
	victim2, batch2 := communityCut(t, s, "test", got.Members, avoid)
	status, res = doJSON(t, "POST", edges, []byte(batch2))
	if status != http.StatusOK {
		t.Fatalf("second cut batch: status %d (%v)", status, res)
	}
	v2 := uint64(res["version"].(float64))

	ev = waitEvent(t, sub)
	if ev.ID != 2 || ev.Version != v2 || !contains32(ev.Left, victim2) {
		t.Fatalf("second delta %+v, want id 2 at version %d with %d in left", ev, v2, victim2)
	}
	st := s.Stats()
	if st.StandingEvals != 2 {
		t.Fatalf("standing evals = %d, want 2 (the attribute batch must not re-evaluate)", st.StandingEvals)
	}
	if st.StandingNotified != 2 {
		t.Fatalf("standing notified = %d, want 2", st.StandingNotified)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(prom)
	for _, want := range []string{
		"macserver_standing_queries 1",
		"macserver_standing_evals_total 2",
		`route="standing_eval"`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics lacks %q", want)
		}
	}

	// Resume: a reconnect that saw only event 1 replays exactly event 2 from
	// the ring — correct id line on the wire, no gap marker, no duplicate.
	eventsURL := ts.URL + "/v1/datasets/test/queries/" + sq.ID + "/events"
	rresp, raw := rawSSE(t, eventsURL, "1")
	rev := waitRaw(t, raw)
	if rev.name != client.EventDelta || rev.id != 2 || rev.ev.ID != 2 || rev.ev.Version != v2 {
		t.Fatalf("resume replay = %+v, want the id-2 delta at version %d", rev, v2)
	}
	rresp.Body.Close()

	// Resuming past the head replays nothing and keeps streaming live.
	rresp, raw = rawSSE(t, eventsURL, "2")
	select {
	case rev := <-raw:
		t.Fatalf("resume at head replayed %+v, want nothing", rev)
	case <-time.After(100 * time.Millisecond):
	}
	rresp.Body.Close()

	// Delete: subscribers get a terminal event, then their streams close
	// cleanly; the registry empties.
	if err := cli.DeleteStandingQuery(ctx, "test", sq.ID); err != nil {
		t.Fatalf("delete standing query: %v", err)
	}
	ev = waitEvent(t, sub)
	if !ev.Terminal || ev.Reason != "query deleted" {
		t.Fatalf("terminal event %+v, want terminal with reason \"query deleted\"", ev)
	}
	if _, ok := <-sub.Events(); ok {
		t.Fatal("subscription channel still open after terminal event")
	}
	if err := sub.Err(); err != nil {
		t.Fatalf("subscription err after terminal = %v, want nil", err)
	}
	if n := s.Stats().StandingQueries; n != 0 {
		t.Fatalf("standing queries after delete = %d, want 0", n)
	}
	if _, err := cli.StandingQuery(ctx, "test", sq.ID); client.StatusOf(err) != http.StatusNotFound {
		t.Fatalf("get after delete: err %v, want 404", err)
	}
}

// TestStandingDatasetDeleteClosesStreams: deleting a dataset tears down its
// standing queries — every subscriber receives a terminal event (not a
// silent hang) and later registrations answer 404.
func TestStandingDatasetDeleteClosesStreams(t *testing.T) {
	net, q, k, tt := testNetwork(t)
	s := New(Config{})
	if err := s.AddDataset("test", net); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cli := client.New(ts.URL)
	ctx := context.Background()

	sq, err := cli.CreateStandingQuery(ctx, "test", &client.StandingQueryRequest{Q: q, K: k, T: tt})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := cli.Subscribe(ctx, "test", sq.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	status, res := doJSON(t, "DELETE", ts.URL+"/v1/datasets/test", nil)
	if status != http.StatusOK {
		t.Fatalf("dataset delete: status %d (%v)", status, res)
	}
	ev := waitEvent(t, sub)
	if !ev.Terminal || ev.Reason != "dataset deleted" {
		t.Fatalf("terminal event %+v, want terminal with reason \"dataset deleted\"", ev)
	}
	if _, ok := <-sub.Events(); ok {
		t.Fatal("subscription channel still open after dataset delete")
	}
	if err := sub.Err(); err != nil {
		t.Fatalf("subscription err = %v, want nil", err)
	}
	if n := s.Stats().StandingQueries; n != 0 {
		t.Fatalf("standing queries after dataset delete = %d, want 0", n)
	}
	if _, err := cli.CreateStandingQuery(ctx, "test", &client.StandingQueryRequest{Q: q, K: k, T: tt}); client.StatusOf(err) != http.StatusNotFound {
		t.Fatalf("register on deleted dataset: err %v, want 404", err)
	}
}

// TestStandingClientPinnedIDRejected: the "id" field of the registration
// body is a router-internal capability (mirroring the primary's minted id to
// followers); a client supplying one gets a 400 unless the request carries
// the internal marker the router sets on mirror forwards. Without this, any
// client could squat ids and 409 other registrations.
func TestStandingClientPinnedIDRejected(t *testing.T) {
	net, q, k, tt := testNetwork(t)
	s := New(Config{})
	if err := s.AddDataset("test", net); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, err := json.Marshal(&client.StandingQueryRequest{ID: "sq-squat", Q: q, K: k, T: tt})
	if err != nil {
		t.Fatal(err)
	}
	status, _ := doJSON(t, "POST", ts.URL+"/v1/datasets/test/queries", body)
	if status != http.StatusBadRequest {
		t.Fatalf("client-pinned id: status %d, want 400", status)
	}

	// The same body with the internal marker (what a router mirror sends) is
	// accepted, under the pinned id.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/datasets/test/queries", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(HeaderInternal, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var sq client.StandingQuery
	if err := json.NewDecoder(resp.Body).Decode(&sq); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || sq.ID != "sq-squat" {
		t.Fatalf("internal pinned create: status %d id %q, want 201 sq-squat", resp.StatusCode, sq.ID)
	}
}

// TestStandingRegistrationsSurviveRestart extends the journal replay
// kill-and-restart scenario to the standing sidecar: a server killed after
// registering a query and applying mutations comes back holding the
// registration, and the restored query's first event carries the converged
// (post-replay) dataset version so resuming subscribers learn where the
// dataset landed — even though the membership itself did not move.
func TestStandingRegistrationsSurviveRestart(t *testing.T) {
	net, q, k, tt := testNetwork(t)
	dir := t.TempDir()
	s1 := New(Config{MutationLogDir: dir})
	if err := s1.AddDataset("test", net); err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	cli1 := client.New(ts1.URL)
	ctx := context.Background()

	sq, err := cli1.CreateStandingQuery(ctx, "test", &client.StandingQueryRequest{Q: q, K: k, T: tt})
	if err != nil {
		t.Fatal(err)
	}

	// The same four-op batch the journal replay test uses — it touches the
	// community (u2 is a query vertex), so the standing query re-evaluates.
	u, v := freshEdge(t, s1, "test")
	var u2, v2 int32 = q[0], net.Social.Neighbors(int(q[0]))[0]
	batch := fmt.Sprintf(
		`{"inserts":[[%d,%d]],"deletes":[[%d,%d]],"attrs":[{"user":%d,"attrs":[0.9,0.1,0.4]}],"moves":[{"user":%d,"vertex":3}]}`,
		u, v, u2, v2, u, v)
	status, res := doJSON(t, "POST", ts1.URL+"/v1/datasets/test/edges", []byte(batch))
	if status != http.StatusOK || res["version"] != float64(4) {
		t.Fatalf("mutation: status %d (%v), want version 4", status, res)
	}
	// Wait for the eval to land (and persist its state to the sidecar) before
	// the kill, so the restart resumes from an evaluated baseline.
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, err := cli1.StandingQuery(ctx, "test", sq.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.Version == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("standing query never reached version 4 (at %d)", got.Version)
		}
		time.Sleep(10 * time.Millisecond)
	}
	ts1.Close() // the "kill": journal and sidecar survive on disk

	s2 := New(Config{MutationLogDir: dir})
	if err := s2.AddDataset("test", net); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	cli2 := client.New(ts2.URL)

	list, err := cli2.StandingQueries(ctx, "test")
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Queries) != 1 || list.Queries[0].ID != sq.ID || list.Queries[0].K != k {
		t.Fatalf("restored queries = %+v, want the pre-kill registration %s", list.Queries, sq.ID)
	}

	// The rebuilt hub seeds its counter from the sidecar, so the numbering
	// continues where the killed process left off (the pre-kill delta was
	// event 1). An explicit Last-Event-ID of 0 claims "saw nothing" — but
	// event 1 died with the old ring, so the server answers a lagged marker
	// first rather than silently skipping it, then the convergence delta,
	// numbered after the pre-kill event.
	rresp, raw := rawSSE(t, ts2.URL+"/v1/datasets/test/queries/"+sq.ID+"/events", "0")
	rev := waitRaw(t, raw)
	if rev.name != client.EventLagged || rev.id != 0 {
		t.Fatalf("first post-restart event = %+v, want the lagged marker for the lost pre-kill event", rev)
	}
	rev = waitRaw(t, raw)
	rresp.Body.Close()
	if rev.name != client.EventDelta || rev.ev.Version != 4 {
		t.Fatalf("post-restart event = %+v, want a delta at the converged version 4", rev)
	}
	if rev.id != 2 || rev.ev.ID != 2 {
		t.Fatalf("convergence event id = %d/%d, want 2 (continuing the pre-kill numbering)", rev.id, rev.ev.ID)
	}
	if rev.ev.MembersChanged {
		t.Fatalf("post-restart convergence event reports changed members: %+v", rev.ev)
	}

	// A subscriber that acked the pre-kill event resumes cleanly: no gap, no
	// duplicate, just the convergence delta.
	rresp, raw = rawSSE(t, ts2.URL+"/v1/datasets/test/queries/"+sq.ID+"/events", "1")
	rev = waitRaw(t, raw)
	rresp.Body.Close()
	if rev.name != client.EventDelta || rev.id != 2 {
		t.Fatalf("resume from pre-kill ack = %+v, want only the id-2 convergence delta", rev)
	}

	// The mint sequence survived too: the next registration continues it.
	sq2, err := cli2.CreateStandingQuery(ctx, "test", &client.StandingQueryRequest{Q: q, K: k + 1, T: tt})
	if err != nil {
		t.Fatal(err)
	}
	if sq2.ID != "sq-2" {
		t.Fatalf("post-restart mint = %q, want sq-2", sq2.ID)
	}
}

// TestStandingCreateDeleteSubscribeRace churns registrations, subscriptions,
// and relevant mutations concurrently, then deletes the dataset under the
// survivors — meaningful under -race; the invariant checked here is that
// every stream terminates.
func TestStandingCreateDeleteSubscribeRace(t *testing.T) {
	net, q, k, tt := testNetwork(t)
	s := New(Config{})
	if err := s.AddDataset("test", net); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cli := client.New(ts.URL)
	ctx := context.Background()
	edges := ts.URL + "/v1/datasets/test/edges"

	// An intra-community edge to toggle: every toggle is a relevant mutation.
	sq0, err := cli.CreateStandingQuery(ctx, "test", &client.StandingQueryRequest{Q: q, K: k, T: tt})
	if err != nil {
		t.Fatal(err)
	}
	in := map[int32]bool{}
	for _, m := range sq0.Members {
		in[m] = true
	}
	var mu, mv int32 = -1, -1
	for _, m := range sq0.Members {
		for _, w := range net.Social.Neighbors(int(m)) {
			if in[w] {
				mu, mv = m, w
				break
			}
		}
		if mu >= 0 {
			break
		}
	}
	if mu < 0 {
		t.Fatal("no intra-community edge")
	}

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() { // creator/deleter churn
			defer wg.Done()
			for i := 0; i < 15; i++ {
				sq, err := cli.CreateStandingQuery(ctx, "test", &client.StandingQueryRequest{Q: q, K: k, T: tt})
				if err != nil {
					continue // dataset may already be gone at the tail
				}
				_ = cli.DeleteStandingQuery(ctx, "test", sq.ID)
			}
		}()
	}
	wg.Add(1)
	go func() { // mutator: strict delete/insert alternation
		defer wg.Done()
		for i := 0; i < 20; i++ {
			method, body := "DELETE", fmt.Sprintf(`{"deletes":[[%d,%d]]}`, mu, mv)
			if i%2 == 1 {
				method, body = "POST", fmt.Sprintf(`{"inserts":[[%d,%d]]}`, mu, mv)
			}
			doJSON(t, method, edges, []byte(body))
		}
	}()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() { // subscribers: attach to whatever currently exists
			defer wg.Done()
			for i := 0; i < 10; i++ {
				list, err := cli.StandingQueries(ctx, "test")
				if err != nil || len(list.Queries) == 0 {
					continue
				}
				sub, err := cli.Subscribe(ctx, "test", list.Queries[0].ID, 0)
				if err != nil {
					continue
				}
				select {
				case <-sub.Events():
				case <-time.After(20 * time.Millisecond):
				}
				sub.Close()
				for range sub.Events() {
				}
			}
		}()
	}
	wg.Wait()

	// Tear the dataset down under a live subscriber: its stream must end with
	// a terminal event, never hang.
	sub, err := cli.Subscribe(ctx, "test", sq0.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if status, res := doJSON(t, "DELETE", ts.URL+"/v1/datasets/test", nil); status != http.StatusOK {
		t.Fatalf("dataset delete: status %d (%v)", status, res)
	}
	sawTerminal := false
	timeout := time.After(10 * time.Second)
	for !sawTerminal {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				t.Fatalf("stream closed without a terminal event (err %v)", sub.Err())
			}
			sawTerminal = ev.Terminal
		case <-timeout:
			t.Fatal("timed out waiting for the terminal event after dataset delete")
		}
	}
	if n := s.Stats().StandingQueries; n != 0 {
		t.Fatalf("standing queries after dataset delete = %d, want 0", n)
	}
}

// TestStandingEvalUsesKTCorePath: a standing query is evaluated as the
// ktcore request a client would send, through the same resolve-and-run
// path. Registering a query right after a ktcore request for the same
// (algo, Q, k, t) is exactly one prepared-cache hit and no miss, and the
// query's initial members are the ktcore answer — for core, also the
// (k,t)-core computed from scratch.
func TestStandingEvalUsesKTCorePath(t *testing.T) {
	net, q, k, tt := testNetwork(t)
	for _, algo := range []client.Algo{client.AlgoGlobal, client.AlgoTruss} {
		t.Run(string(algo), func(t *testing.T) {
			s := New(Config{})
			if err := s.AddDataset("test", net); err != nil {
				t.Fatal(err)
			}
			kt, _, err := s.Do(&SearchRequest{Dataset: "test", Algo: algo, Q: q, K: k, T: tt, KTCoreOnly: true}, nil)
			if err != nil {
				t.Fatal(err)
			}
			before := s.Stats().Cache
			sq, err := s.CreateStandingQuery("test", &client.StandingQueryRequest{Algo: algo, Q: q, K: k, T: tt}, "")
			if err != nil {
				t.Fatal(err)
			}
			after := s.Stats().Cache
			if after.Hits != before.Hits+1 || after.Misses != before.Misses {
				t.Fatalf("registration cache hits %d -> %d, misses %d -> %d; want one hit, no miss",
					before.Hits, after.Hits, before.Misses, after.Misses)
			}
			if got, want := canonMembers(sq.Members), canonMembers(kt.KTCore); got != want {
				t.Fatalf("standing members %s, want the ktcore answer %s", got, want)
			}
			if algo != client.AlgoGlobal {
				return
			}
			if len(sq.Members) == 0 {
				t.Fatal("core standing query has no members")
			}
			truth, err := mac.KTCore(net, q, k, tt)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := canonMembers(sq.Members), canonMembers(truth); got != want {
				t.Fatalf("standing members %s, want mac.KTCore %s", got, want)
			}
		})
	}
}
