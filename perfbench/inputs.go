package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"

	"roadsocial/client"
	"roadsocial/internal/dataset"
	"roadsocial/internal/exp"
	"roadsocial/internal/gen"
	"roadsocial/internal/geom"
	"roadsocial/internal/mac"
	"roadsocial/internal/road"
)

// Query shape shared by every workload: the defaults of the service-latency
// records kept at the repository root, so the numbers relate to the
// repository's earlier measurements.
const (
	datasetName = "SF+Slashdot"
	dims        = 3
	queryK      = 8
	querySize   = 8
	sigma       = 0.004
)

// The dataset is the same for every seed. Across dataset seeds the kt-cores
// of the query families differ twofold in size and a search's cost by an
// order of magnitude, which no run length averages out; the workload seed
// draws the queries, keys, writes and op order on this one dataset.
const datasetSeed = 1

// Workload sizing. The op lists are longer than any timed phase consumes;
// a run that exhausts one stops early and says so.
const (
	// explore's request pool is fixed too (drawn with poolSeed): a search's
	// cost spans 1 ms to seconds across regions, so a pool drawn per seed
	// would set the figures by which heavy regions it happened to draw. Of
	// pool seeds 1-7, 6 gives searches of up to a second (p90 about 150 ms)
	// while a round still takes a few seconds. The workload seed interleaves
	// the families' asks, round by round.
	poolSeed        = 6
	exploreFamilies = 6  // hot (Q,k,t) families, far below the 256-entry prepared cache
	explorePool     = 12 // regions per family, above the 8-region LRU inside mac.Prepared
	exploreOps      = 20000

	liveFamilies  = 3
	liveOps       = 40000
	liveRound     = 10 // one write per round: the 90/10 read/write mix
	liveEdgeDeg   = 12 // most edge toggles stay among users of at most this degree
	liveDenseEach = 5  // every fifth batch toggles an edge of the whole edge set
	liveMaxDelete = 4  // edges of one pool deleted at once before re-inserts are forced
)

// opKind is what one op sends.
type opKind uint8

const (
	opSearch opKind = iota // POST .../search
	opKTCore               // POST .../ktcore
	opWrite                // POST .../edges (a mutation batch)
)

// family is one hot (Q,k,t) query family.
type family struct {
	q       []int32
	k       int
	t       float64
	regions []*geom.Region // explore: the family's region pool
}

// op is one generated request. Reads name a family; writes carry the
// mutation batch.
type op struct {
	kind   opKind
	fam    int // family index, -1 for writes
	q      []int32
	k      int
	t      float64
	region int          // explore: index into the family's region pool
	box    *geom.Region // explore: that region
	j      int
	algo   client.Algo
	write  *client.MutateRequest
	// membership marks a write built to change the subscribed query's
	// membership (a member moved out of range, or back).
	membership bool
}

// key identifies the exact request an op sends, for repeat and
// determinism accounting.
func (o *op) key() string {
	switch o.kind {
	case opSearch:
		return fmt.Sprintf("s/%d/%d/%d/%s", o.fam, o.region, o.j, o.algo)
	case opKTCore:
		return fmt.Sprintf("k/%v/%d/%g", o.q, o.k, o.t)
	}
	return fmt.Sprintf("w/%p", o.write)
}

// inputs is everything generated from the seed before any timing: the
// dataset (written to an RSNAPv2 snapshot the server registers from), a
// library copy of it loaded from the same file, and the op list.
type inputs struct {
	snapPath string
	net      *mac.Network // loaded from snapPath; checks and replays run on it
	tDefault float64
	families []family
	ops      []op
	// round is the length of the op list's rounds (0: none); a timed
	// phase ends on a round boundary.
	round int
	// victim is live's member of family 0 that the membership writes move.
	victim int32
	// warmWrite is live's untimed first write: it moves the victim onto its
	// own spot, which pays the server's lazy core+truss decomposition.
	warmWrite *client.MutateRequest
}

// makeInputs builds the dataset and the workload's op list from the seed.
func makeInputs(cfg config, dir string) (*inputs, error) {
	spec, err := exp.DatasetByName(datasetName)
	if err != nil {
		return nil, err
	}
	inst, err := spec.Build(exp.Small, dims, datasetSeed)
	if err != nil {
		return nil, fmt.Errorf("build dataset: %w", err)
	}
	inst.Net.Oracle = road.BuildGTree(inst.Net.Road, 0)
	in := &inputs{snapPath: filepath.Join(dir, "dataset.snap"), tDefault: inst.TDefault}
	if err := dataset.WriteSnapshotFile(in.snapPath, inst.Net); err != nil {
		return nil, fmt.Errorf("write snapshot: %w", err)
	}
	if in.net, err = dataset.ReadSnapshotFile(in.snapPath); err != nil {
		return nil, fmt.Errorf("read snapshot: %w", err)
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	switch cfg.workload {
	case "explore":
		err = in.explore(in.net, rng, exploreOps)
	case "live":
		err = in.live(in.net, rng, liveOps)
	default:
		err = fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		return nil, err
	}
	return in, nil
}

// hotFamilies draws n query sets admitting a (k,t)-core at the defaults.
func hotFamilies(net *mac.Network, t float64, n int, rng *rand.Rand) ([]family, error) {
	qs := gen.Queries(net, queryK, t, querySize, n, rng)
	if len(qs) == 0 {
		return nil, fmt.Errorf("no feasible query set at k=%d t=%g", queryK, t)
	}
	fams := make([]family, len(qs))
	for i, q := range qs {
		fams[i] = family{q: q, k: queryK, t: t}
	}
	return fams, nil
}

// explore: searches over a handful of hot families. Each family has a pool
// of regions and a fixed sequence of asks over it: each region is asked a
// number of times that falls with its rank (4, 2, then 1: a Zipf skew), in
// an order drawn once, and the asks are split 2:1:1 over global J=1 (GS-NC),
// global J=3 (GS-T) and local (LS) search. A family's sequence visits more
// regions than the 8-region LRU inside mac.Prepared holds, so some asks
// rebuild their region's state, and the same ones in every run. The workload
// seed interleaves the families' sequences, round after round.
func (in *inputs) explore(net *mac.Network, rng *rand.Rand, n int) error {
	prng := rand.New(rand.NewSource(poolSeed))
	fams, err := hotFamilies(net, in.tDefault, exploreFamilies, prng)
	if err != nil {
		return err
	}
	asks := make([][]op, len(fams))
	var slots []int // one slot per ask of a round, naming its family
	for f := range fams {
		for r := 0; r < explorePool; r++ {
			fams[f].regions = append(fams[f].regions, gen.Region(dims, sigma, prng))
		}
		for r := 0; r < explorePool; r++ {
			for c := 0; c < max(1, int(math.Round(4/float64(r+1)))); c++ {
				asks[f] = append(asks[f], op{kind: opSearch, fam: f, q: fams[f].q, k: fams[f].k, t: fams[f].t,
					region: r, box: fams[f].regions[r], j: 1, algo: client.AlgoGlobal})
			}
		}
		prng.Shuffle(len(asks[f]), func(i, j int) { asks[f][i], asks[f][j] = asks[f][j], asks[f][i] })
		for i := range asks[f] {
			switch i % 4 {
			case 2:
				asks[f][i].j = 3
			case 3:
				asks[f][i].algo = client.AlgoLocal
			}
			slots = append(slots, f)
		}
	}
	in.families = fams
	in.round = len(slots)
	next := make([]int, len(fams))
	in.ops = make([]op, 0, n)
	for len(in.ops) < n {
		rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
		for _, f := range slots[:min(len(slots), n-len(in.ops))] {
			in.ops = append(in.ops, asks[f][next[f]%len(asks[f])])
			next[f]++
		}
	}
	return nil
}

// live: a 90/10 mix of hot-family ktcore reads and mutation batches. Every
// batch toggles one edge, updates one user's attributes and moves one user;
// every second batch's move takes a member of family 0 (the subscribed
// standing query) out of range or back, so it changes that query's
// membership. Four batches in five toggle an edge between users of low
// degree, whose core and truss maintenance takes milliseconds; the fifth
// toggles an edge of the whole edge set, many of which lie in dense blocks
// where truss maintenance takes a hundred milliseconds or more. The hot
// families are explore's first three, fixed for the same reason; the
// workload seed draws the reads and the writes.
func (in *inputs) live(net *mac.Network, rng *rand.Rand, n int) error {
	fams, err := hotFamilies(net, in.tDefault, liveFamilies, rand.New(rand.NewSource(poolSeed)))
	if err != nil {
		return err
	}
	in.families = fams
	sg := net.Social
	members, err := mac.KTCore(net, fams[0].q, fams[0].k, fams[0].t)
	if err != nil {
		return fmt.Errorf("family 0 has no (k,t)-core: %w", err)
	}
	anchors := map[int32]bool{}
	for _, f := range fams {
		for _, v := range f.q {
			anchors[v] = true
		}
	}
	in.victim = -1
	for _, m := range members {
		if !anchors[m] {
			in.victim = m
			break
		}
	}
	if in.victim < 0 {
		return fmt.Errorf("family 0's core has no member outside the query sets")
	}
	// The far spot: the road vertex farthest from family 0's first query
	// vertex, beyond t by construction of the grid.
	dist := net.Road.DistancesFrom(net.Locs[fams[0].q[0]], math.Inf(1))
	far := 0
	for v, d := range dist {
		if !math.IsInf(d, 1) && d > dist[far] {
			far = v
		}
	}
	if dist[far] <= fams[0].t {
		return fmt.Errorf("no road vertex lies beyond t=%g of family 0", fams[0].t)
	}
	home := net.Locs[in.victim]
	back := client.LocationMove{User: in.victim, Vertex: home.U}
	if home.U != home.V {
		back = client.LocationMove{User: in.victim, Edge: []int32{home.U, home.V}, Off: home.Off}
	}
	away := client.LocationMove{User: in.victim, Vertex: int32(far)}
	in.warmWrite = &client.MutateRequest{Moves: []client.LocationMove{back}}

	var all, low [][2]int32
	for u := 0; u < sg.N(); u++ {
		for _, v := range sg.Neighbors(u) {
			if int32(u) < v {
				all = append(all, [2]int32{int32(u), v})
				if sg.Degree(u) <= liveEdgeDeg && sg.Degree(int(v)) <= liveEdgeDeg {
					low = append(low, [2]int32{int32(u), v})
				}
			}
		}
	}
	if len(low) == 0 {
		return fmt.Errorf("no edge between users of degree <= %d", liveEdgeDeg)
	}
	missing := map[[2]int32]bool{}
	cheap := &toggler{pool: low, missing: missing}
	dense := &toggler{pool: all, missing: missing}
	inCore := map[int32]bool{}
	for _, f := range fams {
		core, err := mac.KTCore(net, f.q, f.k, f.t)
		if err != nil {
			return err
		}
		for _, v := range core {
			inCore[v] = true
		}
	}
	var outsiders []int32
	for v := int32(0); int(v) < sg.N(); v++ {
		if !inCore[v] {
			outsiders = append(outsiders, v)
		}
	}

	in.round = liveRound
	writes := 0
	in.ops = make([]op, 0, n)
	for len(in.ops) < n {
		wpos := rng.Intn(liveRound)
		for i := 0; i < liveRound && len(in.ops) < n; i++ {
			if i != wpos {
				f := rng.Intn(len(fams))
				in.ops = append(in.ops, op{kind: opKTCore, fam: f, q: fams[f].q, k: fams[f].k, t: fams[f].t})
				continue
			}
			w := &client.MutateRequest{}
			if writes%liveDenseEach == liveDenseEach-1 {
				dense.next(rng, w)
			} else {
				cheap.next(rng, w)
			}
			w.Attrs = []client.AttrUpdate{{User: int32(rng.Intn(sg.N())),
				Attrs: []float64{rng.Float64(), rng.Float64(), rng.Float64()}}}
			o := op{kind: opWrite, fam: -1, write: w}
			switch writes % 4 {
			case 0:
				w.Moves = []client.LocationMove{away}
				o.membership = true
			case 2:
				w.Moves = []client.LocationMove{back}
				o.membership = true
			default:
				u := outsiders[rng.Intn(len(outsiders))]
				w.Moves = []client.LocationMove{{User: u, Vertex: int32(rng.Intn(net.Road.N()))}}
			}
			writes++
			in.ops = append(in.ops, o)
		}
	}
	return nil
}

// toggler deletes edges drawn from its pool and re-inserts them later, with
// at most liveMaxDelete of its edges missing at once. Togglers share the
// set of missing edges, so no edge is deleted twice.
type toggler struct {
	pool    [][2]int32
	deleted [][2]int32
	missing map[[2]int32]bool
}

// next puts the toggler's next edge insert or delete into w.
func (t *toggler) next(rng *rand.Rand, w *client.MutateRequest) {
	if len(t.deleted) > 0 && (len(t.deleted) >= liveMaxDelete || rng.Intn(2) == 0) {
		x := rng.Intn(len(t.deleted))
		e := t.deleted[x]
		t.deleted = append(t.deleted[:x], t.deleted[x+1:]...)
		delete(t.missing, e)
		w.Inserts = [][2]int32{e}
		return
	}
	e := t.pool[rng.Intn(len(t.pool))]
	for t.missing[e] {
		e = t.pool[rng.Intn(len(t.pool))]
	}
	t.missing[e] = true
	t.deleted = append(t.deleted, e)
	w.Deletes = [][2]int32{e}
}
