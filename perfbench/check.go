package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"roadsocial/client"
	"roadsocial/internal/mac"
	"roadsocial/internal/mutate"
	"roadsocial/internal/road"
)

func digestMembers(m []int32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range m {
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

func digestCells(cells []client.CellJSON) []cellDigest {
	out := make([]cellDigest, len(cells))
	for i, c := range cells {
		out[i].witness = c.Witness
		for _, r := range c.Ranked {
			out[i].ranked = append(out[i].ranked, memberDigest{size: len(r), digest: digestMembers(r)})
		}
	}
	return out
}

// digestAnswer covers every cell's witness and ranked communities.
func digestAnswer(cells []cellDigest) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, c := range cells {
		for _, w := range c.witness {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(w))
			h.Write(b[:])
		}
		for _, r := range c.ranked {
			binary.LittleEndian.PutUint64(b[:], r.digest)
			h.Write(b[:])
		}
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// memoOracle answers repeated range queries from memory. The checks ask the
// brute-force oracle about many witnesses of one (Q,t); the distances are
// the wrapped index's own answers, computed once per (Q locations, bound).
type memoOracle struct {
	inner road.Oracle
	mu    sync.Mutex
	memo  map[string][]float64
}

func (m *memoOracle) QueryDistances(qs, us []road.Location, bound float64) ([]float64, error) {
	key := fmt.Sprintf("%v/%d/%g", qs, len(us), bound)
	m.mu.Lock()
	d, ok := m.memo[key]
	m.mu.Unlock()
	if !ok {
		var err error
		if d, err = m.inner.QueryDistances(qs, us, bound); err != nil {
			return nil, err
		}
		m.mu.Lock()
		m.memo[key] = d
		m.mu.Unlock()
	}
	return append([]float64(nil), d...), nil
}

// checkNet is net with a memoizing oracle, for the checks only: a moved
// user changes the locations, so each network version gets its own memo.
func checkNet(net *mac.Network) *mac.Network {
	c := *net
	c.Oracle = &memoOracle{inner: net.Oracle, memo: map[string][]float64{}}
	return &c
}

// parallel runs f(0..n-1) on GOMAXPROCS workers.
func parallel(n int, f func(i int)) {
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// countOpFailures counts the ops the service failed, by status, and notes
// the first error of each kind.
func countOpFailures(p *phase, res *result) {
	for _, r := range p.recs {
		if r.status == 0 {
			continue
		}
		reason := fmt.Sprintf("status %d", r.status)
		if r.status == -1 {
			reason = "transport error"
		}
		if res.reasons[reason] == 0 {
			res.note("op %d: %s", r.op, r.err)
		}
		res.fail(reason, 1)
	}
}

// checkRun checks every answer of the phase, outside the timed phase.
func checkRun(cfg config, in *inputs, p *phase, res *result) {
	countOpFailures(p, res)
	var wrong int
	switch cfg.workload {
	case "explore":
		wrong = checkExplore(in, p, res)
	case "live":
		wrong = checkLive(in, p, res)
	}
	res.fail("wrong answer", wrong)
}

// checkExplore compares every cell of each distinct request's answer with
// mac.BruteForceAt at the cell's witness: the NC-MAC, or the whole ranked
// list for J=3. Local search is held to soundness, its NC-MAC at each
// witness. Every repeat of a request must return the identical answer. It
// returns the number of ops with a wrong answer.
func checkExplore(in *inputs, p *phase, res *result) int {
	byKey := map[string][]*rec{}
	keeper := map[string]*rec{}
	var keys []string
	for _, r := range p.recs {
		if r.status != 0 {
			continue
		}
		k := in.ops[r.op].key()
		if byKey[k] == nil {
			keys = append(keys, k)
		}
		byKey[k] = append(byKey[k], r)
		if r.cells != nil {
			keeper[k] = r
		}
	}
	net := checkNet(in.net)
	bad := make([]bool, len(keys))
	checked := make([]int, len(keys))
	parallel(len(keys), func(i int) {
		kr := keeper[keys[i]]
		if kr == nil {
			bad[i] = true
			return
		}
		n, ok := witnessesMatch(net, &in.ops[kr.op], kr.cells)
		checked[i], bad[i] = n, !ok
	})
	wrong, cells, witnesses := 0, 0, 0
	for i, k := range keys {
		kr := keeper[k]
		if kr != nil {
			cells += len(kr.cells)
		}
		witnesses += checked[i]
		for _, r := range byKey[k] {
			if bad[i] || r.digest != kr.digest || r.size != kr.size {
				wrong++
			}
		}
	}
	res.note("explore check: %d distinct requests, %d of %d returned cells checked at their witnesses", len(keys), witnesses, cells)
	return wrong
}

// witnessesMatch checks every cell's communities against mac.BruteForceAt
// at its witness. It returns the number of witnesses checked before the
// first mismatch (all of them when the answer is right) and whether the
// answer is right.
func witnessesMatch(net *mac.Network, o *op, cells []cellDigest) (int, bool) {
	if len(cells) == 0 {
		// Global search partitions the region; an empty answer is wrong.
		// Local search may legitimately find nothing.
		return 0, o.algo == client.AlgoLocal
	}
	q := &mac.Query{Q: o.q, K: o.k, T: o.t, Region: o.box, J: o.j, Parallelism: 1}
	for n, c := range cells {
		want, err := mac.BruteForceAt(net, q, c.witness)
		if err != nil || len(want) == 0 || len(c.ranked) == 0 {
			return n + 1, false
		}
		if o.algo == client.AlgoLocal {
			want = want[:1]
			if !sameMembers(c.ranked[0], want[0]) {
				return n + 1, false
			}
			continue
		}
		if len(want) != len(c.ranked) {
			return n + 1, false
		}
		for r := range want {
			if !sameMembers(c.ranked[r], want[r]) {
				return n + 1, false
			}
		}
	}
	return len(cells), true
}

func sameMembers(d memberDigest, m []int32) bool {
	return d.size == len(m) && d.digest == digestMembers(m)
}

// ktcoreDigest is the library's (k,t)-core membership digest; an empty core
// digests as the empty list, as the service answers it.
func ktcoreDigest(net *mac.Network, q []int32, k int, t float64) (int, uint64, error) {
	members, err := mac.KTCore(net, q, k, t)
	if errors.Is(err, mac.ErrNoCommunity) {
		members, err = nil, nil
	}
	return len(members), digestMembers(members), err
}

// opsOf flattens a mutation batch in the order the service applies it:
// inserts, deletes, attribute updates, moves.
func opsOf(w *client.MutateRequest) []mutate.Op {
	var ops []mutate.Op
	for _, e := range w.Inserts {
		ops = append(ops, mutate.Op{Kind: mutate.InsertEdge, U: e[0], V: e[1]})
	}
	for _, e := range w.Deletes {
		ops = append(ops, mutate.Op{Kind: mutate.DeleteEdge, U: e[0], V: e[1]})
	}
	for _, a := range w.Attrs {
		ops = append(ops, mutate.Op{Kind: mutate.SetAttrs, U: a.User, Attrs: a.Attrs})
	}
	for _, m := range w.Moves {
		o := mutate.Op{Kind: mutate.MoveUser, U: m.User, Loc: mutate.LocSpec{U: m.Vertex}}
		if len(m.Edge) == 2 {
			o.Loc = mutate.LocSpec{OnEdge: true, U: m.Edge[0], V: m.Edge[1], Off: m.Off}
		}
		ops = append(ops, o)
	}
	return ops
}

// versions replays the acked writes structurally on the library network and
// returns the network at every version the service acknowledged.
func versions(in *inputs, p *phase) (map[uint64]*mac.Network, error) {
	st := &mutate.State{} // no decompositions: structural mutation only
	net, _, err := mutate.Apply(in.net, st, opsOf(p.rig.warmWrite))
	if err != nil {
		return nil, fmt.Errorf("replay warm-up write: %w", err)
	}
	if st.Version != p.rig.warmVersion {
		return nil, fmt.Errorf("warm-up write: library at version %d, service acked %d", st.Version, p.rig.warmVersion)
	}
	out := map[uint64]*mac.Network{st.Version: checkNet(net)}
	for _, r := range p.recs {
		if r.mut == nil {
			continue
		}
		if net, _, err = mutate.Apply(net, st, opsOf(in.ops[r.op].write)); err != nil {
			return nil, fmt.Errorf("replay op %d: %w", r.op, err)
		}
		if st.Version != r.mut.Version {
			return nil, fmt.Errorf("op %d: library at version %d, service acked %d", r.op, st.Version, r.mut.Version)
		}
		out[st.Version] = checkNet(net)
	}
	return out, nil
}

// checkLive checks each read's membership with mac.KTCore on the library
// replay of the acked writes at the version the read reports, and folds the
// subscriber's deltas, checking the membership at each event's version and
// at the end.
func checkLive(in *inputs, p *phase, res *result) int {
	nets, err := versions(in, p)
	if err != nil {
		res.note("live replay diverged: %v", err)
		res.fail("replay mismatch", 1)
		return 0
	}
	type key struct {
		v   uint64
		fam int
	}
	var keys []key
	seen := map[key]bool{}
	for _, r := range p.recs {
		if r.status == 0 && r.mut == nil {
			k := key{r.version, in.ops[r.op].fam}
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	for _, e := range p.events {
		if !e.ev.Lagged && !e.ev.Terminal {
			if k := (key{e.ev.Version, 0}); !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	if k := (key{p.lastVer, 0}); !seen[k] {
		keys = append(keys, k)
	}
	type want struct {
		size   int
		digest uint64
		ok     bool
	}
	wants := make([]want, len(keys))
	parallel(len(keys), func(i int) {
		k := keys[i]
		net := nets[k.v]
		if net == nil {
			return
		}
		f := in.families[k.fam]
		size, digest, err := ktcoreDigest(net, f.q, f.k, f.t)
		wants[i] = want{size, digest, err == nil}
	})
	at := map[key]want{}
	for i, k := range keys {
		at[k] = wants[i]
	}
	wrong := 0
	for _, r := range p.recs {
		if r.status != 0 || r.mut != nil {
			continue
		}
		w := at[key{r.version, in.ops[r.op].fam}]
		if !w.ok || w.size != r.size || w.digest != r.digest {
			wrong++
		}
	}

	// The subscriber's deltas, folded in order, must give the membership at
	// each event's version, and at the last acked version once settled.
	members := p.rig.standing[0].Members
	badDelta, lagged := 0, 0
	for i, e := range p.events {
		switch {
		case e.ev.Lagged:
			lagged++
			continue
		case e.ev.Terminal:
			continue
		}
		members = fold(members, p.events[i:i+1])
		w := at[key{e.ev.Version, 0}]
		if !w.ok || !sameMembers(memberDigest{w.size, w.digest}, members) {
			badDelta++
		}
	}
	res.fail("wrong standing delta", badDelta)
	res.fail("lagged standing event", lagged)
	if p.settled != nil {
		res.note("subscriber did not settle: %v", p.settled)
		res.fail("missing standing event", 1)
	} else if w := at[key{p.lastVer, 0}]; !w.ok || !sameMembers(memberDigest{w.size, w.digest}, members) {
		res.fail("missing standing event", 1)
	}
	return wrong
}

// exactCounts are the program's effort counts over a fixed op prefix; they
// must repeat exactly for a seed.
type exactCounts struct {
	Prefix   int              `json:"prefix"`
	Complete bool             `json:"complete"`
	Counts   map[string]int64 `json:"counts"`
}

// exactNames are the counts that must repeat.
var exactNames = []string{"mac.cells_explored", "mac.hyperplanes", "mac.partitions", "mutate.core_changed", "mutate.truss_changed"}

func exact(cfg config, p *phase) exactCounts {
	n := cfg.prefix
	if n == 0 {
		n = workloads[cfg.workload].prefix
	}
	ex := exactCounts{Prefix: n, Complete: true, Counts: map[string]int64{}}
	for _, name := range exactNames {
		ex.Counts[name] = 0
	}
	for i := 0; i < n; i++ {
		if i >= len(p.recs) || p.recs[i].op != i {
			ex.Complete = false
			break
		}
		r := p.recs[i]
		ex.Counts["mac.cells_explored"] += int64(r.stats.CellsExplored)
		ex.Counts["mac.hyperplanes"] += int64(r.stats.Hyperplanes)
		ex.Counts["mac.partitions"] += int64(r.stats.Partitions)
		if r.mut != nil {
			ex.Counts["mutate.core_changed"] += int64(r.mut.CoreChanged)
			ex.Counts["mutate.truss_changed"] += int64(r.mut.TrussChanged)
		}
	}
	return ex
}

// diffExact reports the counts that differ.
func diffExact(a, b exactCounts) []string {
	var out []string
	for _, name := range exactNames {
		if a.Counts[name] != b.Counts[name] {
			out = append(out, fmt.Sprintf("%s %d vs %d", name, a.Counts[name], b.Counts[name]))
		}
	}
	return out
}

// checkDeterminism compares the run's exact counts with those an earlier
// run of the same benchmark binary recorded for the same workload and seed,
// and records them when none exist.
func checkDeterminism(cfg config, p *phase, res *result) {
	ex := exact(cfg, p)
	if !ex.Complete {
		res.note("exact counts cover fewer than %d ops; not compared", ex.Prefix)
		return
	}
	id, err := binaryID()
	if err != nil {
		res.note("determinism record skipped: %v", err)
		return
	}
	path := filepath.Join(cfg.state, "determinism", fmt.Sprintf("%s-seed%d-%s.json", cfg.workload, cfg.seed, id))
	if b, err := os.ReadFile(path); err == nil {
		var prev exactCounts
		if err := json.Unmarshal(b, &prev); err != nil {
			res.note("determinism record %s unreadable: %v", path, err)
			return
		}
		if d := diffExact(prev, ex); len(d) > 0 {
			res.note("exact counts differ from an earlier run of seed %d: %v", cfg.seed, d)
			res.fail("nondeterministic count", len(d))
		}
		return
	}
	b, _ := json.Marshal(ex)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
		err = os.WriteFile(path, b, 0o644)
		if err != nil {
			res.note("determinism record not written: %v", err)
		}
	}
}

// compareExact compares the exact counts of the untraced and the traced
// phase of one invocation: two runs of the same op list.
func compareExact(cfg config, a, b *phase, res *result) {
	ea, eb := exact(cfg, a), exact(cfg, b)
	if !ea.Complete || !eb.Complete {
		return
	}
	if d := diffExact(ea, eb); len(d) > 0 {
		res.note("exact counts differ between the untraced and the traced phase: %v", d)
		res.fail("nondeterministic count", len(d))
	}
}

// binaryID identifies the running benchmark binary by content, so a record
// is only ever compared with a run of the same program.
func binaryID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
