package service

import (
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"roadsocial/client"
	"roadsocial/internal/mac"
)

// DoBatch executes N heterogeneous requests as one admission unit: the
// whole batch claims a single in-flight slot (so a burst of batches is
// throttled like a burst of requests, and the per-request admission
// overhead is paid once), then its items run in order against the shared
// prepared cache. Each item settles independently — a failed item records
// the HTTP status it would have received standalone and never fails its
// neighbors. Batch-level failures (empty, oversized, saturated, canceled
// while queued) are the only errors returned.
//
// With req.Parallel the items run on extra workers — but only as many as
// the admission semaphore has free slots right now, claimed without
// waiting. The batch therefore never exceeds the server's in-flight
// budget, never queues behind itself, and degrades to the sequential path
// on a busy server; results stay in request order either way.
//
// Counters treat every item as one request (a malformed batch counts as
// one), so requests == completed + failed + in-progress holds across
// mixed single/batch traffic and the fleet-wide sums stay meaningful.
func (s *Server) DoBatch(req *BatchRequest, cancel <-chan struct{}) (*BatchResponse, error) {
	batchStart := time.Now()
	if len(req.Items) == 0 {
		s.requests.Add(1)
		s.failed.Add(1)
		err := invalidf("empty batch")
		s.recordOutcome(&SearchRequest{}, "batch", batchStart, nil, err)
		return nil, err
	}
	if len(req.Items) > MaxBatchItems {
		s.requests.Add(1)
		s.failed.Add(1)
		err := invalidf("%d batch items exceed the limit of %d", len(req.Items), MaxBatchItems)
		s.recordOutcome(&SearchRequest{}, "batch", batchStart, nil, err)
		return nil, err
	}
	n := int64(len(req.Items))
	s.requests.Add(n)
	release, err := s.acquire(cancel)
	if err != nil {
		s.failed.Add(n)
		// A batch-level rejection is every item's terminal answer.
		for i := range req.Items {
			s.recordOutcome(&req.Items[i].SearchRequest, "batch", batchStart, nil, err)
		}
		return nil, err
	}
	defer release()

	start := time.Now()
	resp := &BatchResponse{Items: make([]BatchItemResult, len(req.Items))}
	workers := 1
	if req.Parallel {
		extra := s.tryAcquireExtra(len(req.Items) - 1)
		defer extra.release()
		workers += extra.n
	}
	if workers <= 1 {
		for i := range req.Items {
			resp.Items[i] = s.runItem(&req.Items[i], cancel)
		}
	} else {
		var wg sync.WaitGroup
		var next atomic.Int64
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(req.Items) {
						return
					}
					resp.Items[i] = s.runItem(&req.Items[i], cancel)
				}
			}()
		}
		wg.Wait()
	}
	for i := range resp.Items {
		if resp.Items[i].Status == http.StatusOK {
			resp.OK++
		} else {
			resp.Failed++
		}
	}
	resp.ElapsedMs = float64(time.Since(start).Microseconds()) / 1000
	return resp, nil
}

// extraSlots is a claim on additional in-flight slots beyond the one the
// batch holds.
type extraSlots struct {
	s *Server
	n int
}

func (e extraSlots) release() {
	for i := 0; i < e.n; i++ {
		e.s.inFlight.Add(-1)
		<-e.s.sem
	}
}

// tryAcquireExtra claims up to limit additional in-flight slots without
// waiting: a parallel batch widens into idle capacity only, so it can never
// push total in-flight work past Config.MaxInFlight nor starve queued
// single requests by waiting for them.
func (s *Server) tryAcquireExtra(limit int) extraSlots {
	e := extraSlots{s: s}
	for e.n < limit {
		select {
		case s.sem <- struct{}{}:
			s.inFlight.Add(1)
			e.n++
		default:
			return e
		}
	}
	return e
}

// runItem executes one batch item under the batch's admission slot and
// deadline, mapping its outcome onto the standalone HTTP status.
func (s *Server) runItem(item *BatchItem, cancel <-chan struct{}) BatchItemResult {
	start := time.Now()
	req := item.SearchRequest // copy: KTCoreOnly is server-side state
	switch item.Op {
	case "", client.OpSearch:
	case client.OpKTCore:
		req.KTCoreOnly = true
	default:
		s.failed.Add(1)
		err := invalidf("unknown op %q (want search or ktcore)", item.Op)
		s.recordOutcome(&req, "batch", start, nil, err)
		return itemError(http.StatusBadRequest, err)
	}
	ds, epoch, err := s.resolve(&req)
	if err != nil {
		s.failed.Add(1)
		s.recordOutcome(&req, "batch", start, nil, err)
		return itemError(statusOf(err), err)
	}
	var tm Timing
	out, err := s.doAdmitted(&req, ds, epoch, cancel, &tm)
	s.recordOutcome(&req, "batch", start, &tm, err)
	if err != nil {
		status := statusOf(err)
		if errors.Is(err, mac.ErrCanceled) {
			// The batch deadline fired: this and every later item report
			// the timeout an individual request would have seen.
			status = http.StatusGatewayTimeout
		}
		return itemError(status, err)
	}
	return BatchItemResult{Status: http.StatusOK, Response: out}
}

func itemError(status int, err error) BatchItemResult {
	return BatchItemResult{Status: status, Error: err.Error()}
}
