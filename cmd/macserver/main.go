// Command macserver is the long-lived MAC query service: it loads one or
// more road-social datasets and their G-tree indexes once, then serves
// GlobalSearch/LocalSearch/KTCore requests over a resource-oriented HTTP
// API with a shared prepared-state cache and admission control (see
// internal/service; docs/api.md documents the wire contract).
//
// Startup datasets come either from the synthetic catalog of the experiment
// harness (Table II analogues) or from text files in the cmd/macsearch
// formats:
//
//	macserver -addr=:8080 -datasets=SF+Slashdot,FL+Lastfm -scale=small
//	macserver -addr=:8080 -name=mycity \
//	    -social=soc.txt -attrs=attrs.txt -road=road.txt -locs=locs.txt
//
// Datasets are also first-class resources with an online lifecycle — no
// restart to add, move, or drop one:
//
//	curl -X POST localhost:8080/v1/datasets/mycity -d '{
//	    "social": "soc.txt", "attrs": "attrs.txt",
//	    "road": "road.txt", "locs": "locs.txt", "gtree": true}'
//	curl -X POST localhost:8080/v1/datasets/demo -d '{"synthetic": "SF+Slashdot", "scale": "small"}'
//	curl -X DELETE localhost:8080/v1/datasets/demo
//
// Long-running control-plane work runs asynchronously as job resources:
// POST /v1/datasets/{name}?async=1 answers 202 immediately and builds in
// the background; POST /v1/datasets/{name}/move relocates a dataset between
// shards with a copy-then-cutover (snapshot to the target, atomic routing
// flip, drain, delete — concurrent queries never see an error window); and
// GET /v1/jobs/{id} polls either. Built datasets export and import as
// versioned, checksummed snapshots (GET/PUT /v1/datasets/{name}/snapshot,
// or a spec's "snapshot" path), so re-registering costs I/O, not G-tree
// construction. With -assignments-file the router's placement table
// survives restarts:
//
//	curl -X POST "localhost:8080/v1/datasets/demo?async=1" -d '{"synthetic": "SF+Slashdot"}'
//	curl -s localhost:8080/v1/jobs/job-1
//	curl -X POST localhost:8080/v1/datasets/demo/move -d '{"shard": "shard-2"}'
//	curl -s localhost:8080/v1/datasets/demo/snapshot -o demo.snap
//	curl -X PUT --data-binary @demo.snap localhost:8081/v1/datasets/demo/snapshot
//
// With -shards=N the process runs N service instances and partitions the
// datasets across them by consistent hashing on the dataset name
// (internal/shard); dataset-scoped requests route to the owning shard by
// URL, /v1/healthz and /v1/stats aggregate, and /v1/batch splits across
// shards. The aggregated schema is served at every shard count — scaling
// from 1 to N shards never changes what monitoring sees. With -peers the
// process loads no datasets at all and routes to remote macserver shards
// instead:
//
//	macserver -addr=:8080 -datasets=SF+Slashdot,FL+Lastfm -shards=4
//	macserver -addr=:8080 -peers=http://10.0.0.7:8080,http://10.0.0.8:8080
//
// -auth-token=SECRET requires "Authorization: Bearer SECRET" on every /v1
// route; the routing tier forwards the same token to its peers, so a fleet
// shares one secret end to end.
//
// Query it with the typed SDK (the client package) or plain JSON:
//
//	curl -s localhost:8080/v1/datasets/SF+Slashdot/search -d '{
//	    "q": [3, 7], "k": 4, "t": 2500,
//	    "region": {"lo": [0.2, 0.2], "hi": [0.25, 0.25]},
//	    "algo": "global", "timeout_ms": 2000}'
//	curl -s localhost:8080/v1/datasets/SF+Slashdot/ktcore -d '{"q": [3], "k": 4, "t": 2500}'
//	curl -s localhost:8080/v1/batch -d '{"items": [
//	    {"op": "ktcore", "dataset": "SF+Slashdot", "q": [3], "k": 4, "t": 2500},
//	    {"dataset": "FL+Lastfm", "q": [5], "k": 3, "t": 2000,
//	     "region": {"lo": [0.2, 0.2], "hi": [0.25, 0.25]}}]}'
//	curl -s localhost:8080/v1/healthz
//	curl -s localhost:8080/v1/stats
//
// Repeated requests sharing (dataset, Q, k, t) reuse one prepared state:
// only the first pays the road-network range query and r-dominance build.
// When in-flight and queued work exceed the bounds, requests are rejected
// with 429 rather than piling up; requests that exceed their deadline are
// abandoned mid-search (504) via Query.Cancel.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux, served by -pprof-addr
	"os"
	"os/signal"
	"strings"
	"time"

	"roadsocial"
	"roadsocial/internal/exp"
	"roadsocial/internal/service"
	"roadsocial/internal/shard"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		datasets = flag.String("datasets", "SF+Slashdot", "comma-separated synthetic dataset names from the experiment catalog (see internal/exp), or empty for none")
		scale    = flag.String("scale", "small", "synthetic dataset scale: tiny, small, medium")
		d        = flag.Int("d", 3, "synthetic attribute dimensionality")
		seed     = flag.Int64("seed", 20210421, "synthetic dataset seed")
		gtree    = flag.Bool("gtree", true, "index road networks with a G-tree")

		name       = flag.String("name", "", "name for a file-loaded dataset")
		socialPath = flag.String("social", "", "social edge list file")
		attrsPath  = flag.String("attrs", "", "attribute file")
		roadPath   = flag.String("road", "", "road edge list file")
		locsPath   = flag.String("locs", "", "user location file")

		maxInFlight  = flag.Int("max-inflight", 0, "concurrent searches per shard; 0 = GOMAXPROCS")
		maxQueue     = flag.Int("max-queue", 0, "waiting requests beyond in-flight; 0 = 4x in-flight")
		cacheCap     = flag.Int("cache", 256, "prepared-state cache entries per shard")
		cacheCost    = flag.Int64("cache-cost", 0, "prepared-state cache weight budget (sum of cohesive-subgraph sizes); 0 = 1<<20")
		timeout      = flag.Duration("timeout", 10*time.Second, "default per-request deadline")
		maxTimeout   = flag.Duration("max-timeout", 60*time.Second, "cap on client-requested deadlines")
		parallelism  = flag.Int("parallelism", 0, "per-search workers; 0 = GOMAXPROCS")
		maxSnapshot  = flag.Int64("max-snapshot-bytes", 0, "cap on buffered snapshot restores (PUT snapshot bodies); 0 = 1 GiB. File-registered (mmap) snapshots are never buffered and ignore this cap")
		mutLogDir    = flag.String("mutation-log-dir", "", "directory for per-dataset mutation journals: mutations fsync here before answering and replay on restart; empty disables durability")
		standingDir  = flag.String("standing-dir", "", "directory for standing-query registration sidecars (restart-durable subscriptions); empty inherits -mutation-log-dir")
		standingRing = flag.Int("standing-ring", 0, "standing-query event ring size per query (the Last-Event-ID resume window); 0 = 256")
		standingBuf  = flag.Int("standing-sub-buffer", 0, "buffered events per SSE subscriber before it is marked lagged; 0 = 32")
		authToken    = flag.String("auth-token", "", "shared secret: require 'Authorization: Bearer <token>' on all /v1 routes and forward it to -peers")

		shards      = flag.Int("shards", 1, "in-process service shards; datasets partition across them by consistent hashing")
		peers       = flag.String("peers", "", "comma-separated base URLs of remote macserver shards; when set, this process only routes")
		assignFile  = flag.String("assignments-file", "", "persist the router's dataset-assignment table to this file, so moves survive a restart")
		resyncEvery = flag.Duration("resync-interval", 15*time.Second, "background assignment re-sync period for -peers routers (recovered peers are re-adopted within one period); 0 disables")
		replication = flag.Int("replication", 1, "replicas per dataset (primary + followers on distinct shards); reads fail over to a follower when the primary is unreachable")

		logFormat = flag.String("log-format", "text", "structured log encoding: text or json")
		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn, error (access logs for /metrics and /v1/healthz emit at debug)")
		slowQuery = flag.Duration("slow-query", 0, "log a warning with the full (Q, k, t) key for searches slower than this; 0 disables")
		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof on this separate listener (e.g. 127.0.0.1:6060); empty disables")
	)
	flag.Parse()

	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	slog.SetDefault(logger)
	fatal := func(msg string, attrs ...any) {
		logger.Error(msg, attrs...)
		os.Exit(1)
	}

	if *pprofAddr != "" {
		// pprof stays off the public listener: its own port, no auth token —
		// bind it to localhost (or a management network) in production.
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				logger.Error("pprof listener failed", "addr", *pprofAddr, "error", err)
			}
		}()
	}

	cfg := service.Config{
		MaxInFlight:    *maxInFlight,
		MaxQueue:       *maxQueue,
		CacheCapacity:  *cacheCap,
		CacheMaxCost:   *cacheCost,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		Parallelism:    *parallelism,
		LoadSpec:       specLoader(*scale, *d, *seed),
		Logger:         logger,
		SlowQuery:      *slowQuery,

		MaxSnapshotBytes: *maxSnapshot,
		MutationLogDir:   *mutLogDir,

		StandingDir:       *standingDir,
		StandingRing:      *standingRing,
		StandingSubBuffer: *standingBuf,
	}

	if *mutLogDir != "" {
		if err := os.MkdirAll(*mutLogDir, 0o755); err != nil {
			fatal("mutation log dir", "path", *mutLogDir, "error", err)
		}
	}
	if *standingDir != "" {
		if err := os.MkdirAll(*standingDir, 0o755); err != nil {
			fatal("standing query dir", "path", *standingDir, "error", err)
		}
	}

	// Pure routing tier: no local datasets, every request proxied to the
	// remote shard owning its dataset (the shared token travels along).
	if *peers != "" {
		var backends []shard.Backend
		for _, peer := range strings.Split(*peers, ",") {
			peer = strings.TrimSpace(peer)
			if peer == "" {
				// A stray comma must not mint a nameless backend that owns
				// half the ring and blackholes its datasets at request time.
				continue
			}
			backends = append(backends, shard.NewRemote(peer, peer, nil, shard.WithToken(*authToken)))
		}
		router, err := shard.NewRouter(backends, 0)
		if err != nil {
			fatal("router init failed", "error", err)
		}
		router.SetReplication(*replication)
		// Persisted assignments come first (a restart knows where it left
		// the datasets even while a peer is down), then a live sync against
		// the peers' actual lists. A peer that is down right now is marked
		// and re-synced by the background prober — or by any health/stats
		// probe — the moment it answers again.
		if *assignFile != "" {
			if n, err := router.PersistAssignments(*assignFile); err != nil {
				fatal("loading assignments failed", "path", *assignFile, "error", err)
			} else if n > 0 {
				logger.Info("loaded dataset assignments", "count", n, "path", *assignFile)
			}
			// The job journal rides next to the assignments file: in-flight
			// replicate/move jobs from the previous process resume (or fail
			// explicitly) instead of silently vanishing.
			if n, err := router.EnableJobJournal(*assignFile + ".jobs"); err != nil {
				fatal("job journal init failed", "path", *assignFile+".jobs", "error", err)
			} else if n > 0 {
				logger.Info("recovered in-flight jobs", "count", n, "path", *assignFile+".jobs")
			}
		}
		if pins := router.SyncAssignments(); pins > 0 {
			logger.Info("recovered off-ring dataset assignments from peers", "count", pins)
		}
		if repairs := router.SyncReplicas(); repairs > 0 {
			logger.Info("initiated replica repairs", "count", repairs)
		}
		if *resyncEvery > 0 {
			stop := router.StartProber(*resyncEvery)
			defer stop()
		}
		logger.Info("macserver routing to remote shards", "shards", len(backends), "addr", *addr)
		serve(logger, *addr, edgeHandler(logger, *authToken, router.Handler()))
		return
	}

	if *shards < 1 {
		fatal("-shards must be >= 1", "shards", *shards)
	}
	locals := make([]*shard.Local, *shards)
	backends := make([]shard.Backend, *shards)
	for i := range locals {
		shardName := fmt.Sprintf("shard-%d", i)
		// Each shard logs under its own name, so a record from an in-process
		// leaf is attributable exactly like one from a remote leaf.
		shardCfg := cfg
		shardCfg.Logger = logger.With("shard", shardName)
		locals[i] = shard.NewLocal(shardName, service.New(shardCfg))
		backends[i] = locals[i]
	}
	router, err := shard.NewRouter(backends, 0)
	if err != nil {
		fatal("router init failed", "error", err)
	}
	router.SetReplication(*replication)
	// With persistence, startup dataset placement below goes through
	// OwnerIndex and therefore honors assignments from the previous run:
	// a dataset moved to shard-2 comes back on shard-2.
	if *assignFile != "" {
		if n, err := router.PersistAssignments(*assignFile); err != nil {
			fatal("loading assignments failed", "path", *assignFile, "error", err)
		} else if n > 0 {
			logger.Info("loaded dataset assignments", "count", n, "path", *assignFile)
		}
		if n, err := router.EnableJobJournal(*assignFile + ".jobs"); err != nil {
			fatal("job journal init failed", "path", *assignFile+".jobs", "error", err)
		} else if n > 0 {
			logger.Info("recovered in-flight jobs", "count", n, "path", *assignFile+".jobs")
		}
	}
	// addDataset registers a startup network on the shard that owns its
	// name; runtime registrations flow through POST /v1/datasets/{name}.
	addDataset := func(name string, net *roadsocial.Network) {
		owner := locals[router.OwnerIndex(name)]
		if err := owner.Server().AddDataset(name, net); err != nil {
			fatal("dataset registration failed", "dataset", name, "shard", owner.Name(), "error", err)
		}
		if *shards > 1 {
			logger.Info("dataset placed", "dataset", name, "shard", owner.Name())
		}
	}

	sc, err := parseScale(*scale)
	if err != nil {
		fatal("bad -scale", "error", err)
	}
	if *datasets != "" {
		for _, dsName := range strings.Split(*datasets, ",") {
			dsName = strings.TrimSpace(dsName)
			spec, err := exp.DatasetByName(dsName)
			if err != nil {
				fatal("unknown dataset", "dataset", dsName, "error", err)
			}
			start := time.Now()
			in, err := spec.Build(sc, *d, *seed)
			if err != nil {
				fatal("dataset build failed", "dataset", dsName, "error", err)
			}
			if *gtree {
				in.Net.Oracle = roadsocial.BuildGTree(in.Net.Road, 0)
			}
			addDataset(dsName, in.Net)
			logger.Info("dataset loaded",
				"dataset", dsName,
				"users", in.Net.Social.N(),
				"friendships", in.Net.Social.M(),
				"road_vertices", in.Net.Road.N(),
				"t_default", in.TDefault,
				"elapsed", time.Since(start).Round(time.Millisecond).String())
		}
	}
	if *socialPath != "" {
		if *name == "" {
			fatal("file-loaded dataset requires -name")
		}
		net, _, err := service.LoadSpecFiles(*name, &service.DatasetSpec{
			Social: *socialPath, Attrs: *attrsPath, Road: *roadPath, Locs: *locsPath, GTree: *gtree,
		})
		if err != nil {
			fatal("dataset files failed to load", "dataset", *name, "error", err)
		}
		addDataset(*name, net)
		logger.Info("dataset loaded",
			"dataset", *name,
			"users", net.Social.N(),
			"friendships", net.Social.M(),
			"road_vertices", net.Road.N(),
			"source", "files")
	}
	var loaded []string
	for _, l := range locals {
		loaded = append(loaded, l.Server().Datasets()...)
	}
	if len(loaded) == 0 {
		logger.Info("no startup datasets; register some via POST /v1/datasets/{name}")
	}

	// Every shard count serves through the router, so the API — including
	// lifecycle, batch, and the aggregated healthz/stats schema — is one
	// surface whether a deployment runs 1 shard or 40.
	logger.Info("macserver listening", "addr", *addr, "shards", *shards, "datasets", strings.Join(loaded, ", "))
	serve(logger, *addr, edgeHandler(logger, *authToken, router.Handler()))
}

// buildLogger assembles the process logger from the -log-format/-log-level
// flags.
func buildLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn", "warning":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn, or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch strings.ToLower(format) {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}

// edgeHandler wraps the routing tier's handler with the edge middleware:
// request-ID minting outermost (so even auth failures carry an ID), then
// the access log, then auth. Leaf handlers carry their own copies of the
// same chain, so a two-tier deployment logs one record per tier per
// request, joined by the propagated ID.
func edgeHandler(logger *slog.Logger, token string, h http.Handler) http.Handler {
	return service.WithRequestID(service.AccessLog(logger, service.RequireAuth(token, h)))
}

// specLoader resolves POST /v1/datasets/{name} specs: synthetic catalog
// names through the experiment harness (with the server's flag defaults for
// scale/d/seed), snapshot- and file-backed specs through the default
// loader (a snapshot wins when both are named: loading beats rebuilding).
func specLoader(defaultScale string, defaultD int, defaultSeed int64) func(string, *service.DatasetSpec) (*roadsocial.Network, uint64, error) {
	return func(name string, spec *service.DatasetSpec) (*roadsocial.Network, uint64, error) {
		if spec.Snapshot != "" || spec.Synthetic == "" {
			return service.LoadSpecFiles(name, spec)
		}
		dspec, err := exp.DatasetByName(spec.Synthetic)
		if err != nil {
			return nil, 0, err
		}
		scaleName := spec.Scale
		if scaleName == "" {
			scaleName = defaultScale
		}
		sc, err := parseScale(scaleName)
		if err != nil {
			return nil, 0, err
		}
		d := spec.D
		if d == 0 {
			d = defaultD
		}
		seed := spec.Seed
		if seed == 0 {
			seed = defaultSeed
		}
		in, err := dspec.Build(sc, d, seed)
		if err != nil {
			return nil, 0, err
		}
		if spec.GTree {
			in.Net.Oracle = roadsocial.BuildGTree(in.Net.Road, 0)
		}
		return in.Net, 0, nil
	}
}

// serve runs the HTTP server until interrupted.
func serve(logger *slog.Logger, addr string, handler http.Handler) {
	hs := &http.Server{Addr: addr, Handler: handler}
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		<-sig
		logger.Info("shutting down")
		_ = hs.Close()
	}()
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("listener failed", "addr", addr, "error", err)
		os.Exit(1)
	}
}

func parseScale(s string) (exp.Scale, error) {
	switch s {
	case "tiny":
		return exp.Tiny, nil
	case "small":
		return exp.Small, nil
	case "medium":
		return exp.Medium, nil
	default:
		return 0, fmt.Errorf("unknown scale %q (want tiny, small, or medium)", s)
	}
}
