package service

import (
	"fmt"
	"io"
	"os"

	"roadsocial/internal/dataset"
	"roadsocial/internal/mac"
	"roadsocial/internal/road"
)

// LoadSpecFiles is the default Config.LoadSpec: it materializes the
// snapshot-backed or file-backed half of a DatasetSpec (paths resolved on
// the server's disk) and optionally builds a G-tree index. Snapshot specs
// are the fast path — the built index is decoded, not reconstructed, so
// registration cost is proportional to I/O. Synthetic-catalog specs need a
// loader that knows the experiment harness; cmd/macserver injects one.
// Because the paths are opened server-side, a deployment exposing the
// create endpoint should run with an auth token.
func LoadSpecFiles(name string, spec *DatasetSpec) (*mac.Network, uint64, error) {
	if spec.Snapshot != "" {
		net, version, err := dataset.ReadSnapshotFileVersion(spec.Snapshot)
		if err != nil {
			return nil, 0, invalidf("dataset %q: %v", name, err)
		}
		return net, version, nil
	}
	if spec.Synthetic != "" {
		return nil, 0, invalidf("dataset %q: no synthetic catalog loader configured on this server", name)
	}
	if spec.Social == "" || spec.Attrs == "" || spec.Road == "" || spec.Locs == "" {
		return nil, 0, invalidf("dataset %q: spec needs social, attrs, road, and locs file paths (or a synthetic catalog name)", name)
	}
	open := func(path string) (*os.File, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, invalidf("dataset %q: %v", name, err)
		}
		return f, nil
	}
	sf, err := open(spec.Social)
	if err != nil {
		return nil, 0, err
	}
	defer sf.Close()
	af, err := open(spec.Attrs)
	if err != nil {
		return nil, 0, err
	}
	defer af.Close()
	rf, err := open(spec.Road)
	if err != nil {
		return nil, 0, err
	}
	defer rf.Close()
	lf, err := open(spec.Locs)
	if err != nil {
		return nil, 0, err
	}
	defer lf.Close()
	net, err := dataset.ReadNetwork(sf, af, nil, rf, lf)
	if err != nil {
		return nil, 0, invalidf("dataset %q: %v", name, err)
	}
	if spec.GTree {
		net.Oracle = road.BuildGTree(net.Road, 0)
	}
	return net, 0, nil
}

// CreateDataset materializes a spec through the configured loader and
// registers the result — the transport-agnostic core of
// POST /v1/datasets/{name}. Loading runs outside the search admission
// bounds (it is a control-plane operation, typically long), but the name is
// claimed only on success, so a failed load leaves no trace.
func (s *Server) CreateDataset(name string, spec *DatasetSpec) (*DatasetInfo, error) {
	if name == "" {
		return nil, invalidf("empty dataset name")
	}
	// Fail fast on a taken name before paying the load; AddDataset
	// re-checks under the lock, so a concurrent create still loses cleanly.
	s.mu.RLock()
	_, taken := s.nets[name]
	s.mu.RUnlock()
	if taken {
		return nil, fmt.Errorf("%w: %q", ErrDatasetExists, name)
	}
	net, version, err := s.cfg.LoadSpec(name, spec)
	if err != nil {
		return nil, err
	}
	if err := net.Validate(); err != nil {
		return nil, invalidf("dataset %q: %v", name, err)
	}
	if err := s.AddDatasetVersion(name, net, version); err != nil {
		return nil, err
	}
	return s.registeredInfo(name)
}

// CreateDatasetAsync submits the registration as a job: the transport-
// agnostic core of POST /v1/datasets/{name}?async=1. The name is checked
// for availability up front so an obviously-conflicting submission fails
// synchronously with 409 rather than minting a doomed job; the load itself
// runs on a job worker, polling cancel at its phase boundaries. requestID is
// the submitting request's X-Request-ID ("" for none), stamped into the job
// record.
func (s *Server) CreateDatasetAsync(name string, spec *DatasetSpec, requestID string) (*Job, error) {
	if name == "" {
		return nil, invalidf("empty dataset name")
	}
	s.mu.RLock()
	_, taken := s.nets[name]
	s.mu.RUnlock()
	if taken {
		return nil, fmt.Errorf("%w: %q", ErrDatasetExists, name)
	}
	specCopy := *spec
	return s.jobs.Submit("", JobKindCreate, name, requestID, func(cancel <-chan struct{}, progress func(string)) (*DatasetInfo, error) {
		progress("loading")
		if chanClosed(cancel) {
			return nil, mac.ErrCanceled
		}
		info, err := s.CreateDataset(name, &specCopy)
		if err != nil {
			return nil, err
		}
		if chanClosed(cancel) {
			// Canceled during the load: undo the registration so a canceled
			// job leaves no trace, mirroring a failed synchronous create.
			_ = s.RemoveDataset(name)
			return nil, mac.ErrCanceled
		}
		return info, nil
	})
}

// SaveSnapshot streams a registered dataset as a versioned, checksummed
// snapshot — the transport-agnostic core of GET /v1/datasets/{name}/snapshot
// and the input half of copy-then-cutover moves. A mutated dataset's current
// mutation version is stamped into the snapshot header, so a restore (or a
// restart registering from this file) resumes journal replay exactly past
// the state the snapshot captured.
func (s *Server) SaveSnapshot(name string, w io.Writer) error {
	e, err := s.network(name)
	if err != nil {
		return err
	}
	return dataset.WriteSnapshotVersion(w, e.net, e.version)
}

// CreateDatasetFromSnapshot registers a dataset decoded from snapshot
// bytes — the transport-agnostic core of PUT /v1/datasets/{name}/snapshot
// and the restore half of copy-then-cutover moves. Registration cost is
// decode I/O; the G-tree inside the snapshot is loaded, not rebuilt.
func (s *Server) CreateDatasetFromSnapshot(name string, r io.Reader) (*DatasetInfo, error) {
	if name == "" {
		return nil, invalidf("empty dataset name")
	}
	s.mu.RLock()
	_, taken := s.nets[name]
	s.mu.RUnlock()
	if taken {
		return nil, fmt.Errorf("%w: %q", ErrDatasetExists, name)
	}
	net, version, err := dataset.ReadSnapshotLimitVersion(r, s.cfg.MaxSnapshotBytes)
	if err != nil {
		return nil, invalidf("dataset %q: %v", name, err)
	}
	if err := s.AddDatasetVersion(name, net, version); err != nil {
		return nil, err
	}
	return s.registeredInfo(name)
}

// registeredInfo describes a just-registered dataset from its live entry, so
// the reported version reflects any journal replay the registration ran.
func (s *Server) registeredInfo(name string) (*DatasetInfo, error) {
	e, err := s.network(name)
	if err != nil {
		return nil, err
	}
	return &DatasetInfo{
		Dataset:      name,
		Users:        e.net.Social.N(),
		Friendships:  e.net.Social.M(),
		RoadVertices: e.net.Road.N(),
		Version:      e.version,
	}, nil
}
