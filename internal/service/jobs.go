package service

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"roadsocial/client"
)

// Jobs is the bounded runner behind the asynchronous control plane: a
// control-plane operation (dataset create, dataset move) submitted here
// becomes an addressable, pollable job resource (client.Job) executed by a
// fixed pool of workers, so an expensive registration can never stampede
// the process — excess jobs queue, and a full queue rejects with
// ErrJobsSaturated the way the data plane rejects with ErrSaturated.
//
// Cancellation uses the same channel discipline as Query.Cancel: every job
// receives a cancel channel that closes when the job is canceled, and the
// job's work is expected to poll it at phase boundaries (the search
// machinery already does at task boundaries). Canceling a pending job fails
// it without running it at all.
//
// Both the leaf server (async creates) and the shard router (moves, and
// creates it forwards) embed a Jobs; jobs are a resource of the tier the
// client talks to. Workers start lazily on the first submission, so a
// server that never runs a job never pays the goroutines.
type Jobs struct {
	done   atomic.Int64 // jobs settled successfully
	failed atomic.Int64 // jobs settled with an error (including cancels)

	mu      sync.Mutex
	started bool
	queue   chan *jobTask
	jobs    map[string]*jobTask
	order   []string // submission order, for listing and pruning
	seq     uint64
}

// jobWorkers bounds concurrently executing jobs: control-plane work is heavy
// and rare, and two workers let a long build overlap a quick one without
// saturating the data plane's cores. Jobs beyond the bound queue.
const jobWorkers = 2

// maxQueuedJobs bounds submissions waiting for a worker; beyond it, Submit
// answers ErrJobsSaturated (HTTP 429).
const maxQueuedJobs = 256

// maxRetainedJobs bounds how many settled jobs stay pollable; the oldest
// settled jobs are pruned first, running and pending jobs never.
const maxRetainedJobs = 256

// ErrJobsSaturated reports that the control-plane job queue is full.
var ErrJobsSaturated = errors.New("service: job queue full")

// ErrUnknownJob reports a job id the server does not hold (HTTP 404).
var ErrUnknownJob = errors.New("service: unknown job")

// JobFunc is one job's work. It runs on a worker goroutine; cancel closes
// if the job is canceled (poll it at phase boundaries), and progress
// publishes the current phase name to pollers. The returned info (may be
// nil) lands in the job's Result on success.
type JobFunc func(cancel <-chan struct{}, progress func(string)) (*client.DatasetInfo, error)

// jobTask is the mutable server-side state of one job; the client.Job view
// is snapshotted under the manager's lock.
type jobTask struct {
	job    client.Job
	run    JobFunc
	cancel chan struct{}
}

// NewJobs creates a job manager running jobWorkers workers.
func NewJobs() *Jobs {
	return &Jobs{
		queue: make(chan *jobTask, maxQueuedJobs),
		jobs:  make(map[string]*jobTask),
	}
}

// NewID mints a fresh job id without registering a job. Callers that journal
// a job durably before enqueueing it (the shard router) reserve the id
// first, write the journal entry, and then Submit under the same id — so
// the journal never names an id the job manager would reassign.
func (m *Jobs) NewID() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.seq++
	return fmt.Sprintf("job-%d", m.seq)
}

// Submit enqueues a job and returns its resource view in state pending (or
// ErrJobsSaturated when the queue is full). kind and dataset label the job;
// run is executed by a worker. An empty id mints one; a caller-chosen id
// (from NewID, or recovered from a durable journal) must not be taken.
// Recovered ids of the form "job-N" advance the internal sequence past N, so
// a restarted server never reissues an id its journal already names.
// requestID is the X-Request-ID of the HTTP request that caused the
// submission ("" for none), stamped into the job record so a request can be
// traced from the edge into the control plane.
func (m *Jobs) Submit(id, kind, dataset, requestID string, run JobFunc) (*client.Job, error) {
	m.mu.Lock()
	if !m.started {
		m.started = true
		for i := 0; i < jobWorkers; i++ {
			go m.worker()
		}
	}
	if id == "" {
		m.seq++
		id = fmt.Sprintf("job-%d", m.seq)
	} else {
		if _, exists := m.jobs[id]; exists {
			m.mu.Unlock()
			return nil, fmt.Errorf("service: duplicate job id %q", id)
		}
		var n uint64
		if _, err := fmt.Sscanf(id, "job-%d", &n); err == nil && n > m.seq {
			m.seq = n
		}
	}
	t := &jobTask{
		job: client.Job{
			ID:        id,
			Kind:      kind,
			Dataset:   dataset,
			State:     client.JobPending,
			RequestID: requestID,
			CreatedAt: time.Now().UTC(),
		},
		run:    run,
		cancel: make(chan struct{}),
	}
	m.jobs[t.job.ID] = t
	m.order = append(m.order, t.job.ID)
	m.prune()
	snap := t.job
	m.mu.Unlock()

	select {
	case m.queue <- t:
		return &snap, nil
	default:
		// Queue full: settle the job as failed so the id stays pollable,
		// and reject the submission.
		m.settle(t, nil, ErrJobsSaturated)
		return nil, ErrJobsSaturated
	}
}

// Get returns the current view of a job.
func (m *Jobs) Get(id string) (*client.Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	snap := t.job
	return &snap, nil
}

// List returns every retained job in submission order.
func (m *Jobs) List() []client.Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]client.Job, 0, len(m.order))
	for _, id := range m.order {
		if t, ok := m.jobs[id]; ok {
			out = append(out, t.job)
		}
	}
	return out
}

// Cancel closes the job's cancel channel. A pending job settles as failed
// immediately (its worker skips it); a running job settles when its work
// observes the channel. The returned view reflects the state at the time
// of the call.
func (m *Jobs) Cancel(id string) (*client.Job, error) {
	m.mu.Lock()
	t, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	select {
	case <-t.cancel:
	default:
		close(t.cancel)
	}
	snap := t.job
	m.mu.Unlock()
	return &snap, nil
}

func (m *Jobs) worker() {
	for t := range m.queue {
		m.mu.Lock()
		canceled := chanClosed(t.cancel)
		if !canceled {
			now := time.Now().UTC()
			t.job.State = client.JobRunning
			t.job.StartedAt = &now
		}
		m.mu.Unlock()
		if canceled {
			m.settle(t, nil, errors.New("canceled before start"))
			continue
		}
		info, err := t.run(t.cancel, func(phase string) {
			m.mu.Lock()
			t.job.Progress = phase
			m.mu.Unlock()
		})
		m.settle(t, info, err)
	}
}

// settle records a job's outcome.
func (m *Jobs) settle(t *jobTask, info *client.DatasetInfo, err error) {
	m.mu.Lock()
	now := time.Now().UTC()
	t.job.FinishedAt = &now
	if err != nil {
		t.job.State = client.JobFailed
		t.job.Error = err.Error()
	} else {
		t.job.State = client.JobDone
		t.job.Result = info
	}
	m.mu.Unlock()
	if err != nil {
		m.failed.Add(1)
	} else {
		m.done.Add(1)
	}
}

// Counts reports how many jobs have settled by outcome.
func (m *Jobs) Counts() (done, failed int64) {
	return m.done.Load(), m.failed.Load()
}

// prune drops the oldest settled jobs beyond the retention bound. Caller
// holds m.mu.
func (m *Jobs) prune() {
	if len(m.order) <= maxRetainedJobs {
		return
	}
	kept := m.order[:0]
	excess := len(m.order) - maxRetainedJobs
	for _, id := range m.order {
		t := m.jobs[id]
		if excess > 0 && t != nil && (t.job.State == client.JobDone || t.job.State == client.JobFailed) {
			delete(m.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
}

// jobStatusOf maps job-manager errors onto HTTP statuses.
func jobStatusOf(err error) int {
	switch {
	case errors.Is(err, ErrJobsSaturated):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrUnknownJob):
		return http.StatusNotFound
	default:
		return http.StatusInternalServerError
	}
}
