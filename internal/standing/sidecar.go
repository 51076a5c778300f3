package standing

import (
	"encoding/json"
	"fmt"

	"roadsocial/client"
	"roadsocial/internal/durable"
)

// Sidecar persists one dataset's standing-query registrations as a
// durable.Log of JSON-encoded records next to the mutation journal. Like the
// journal it compacts on open: read everything, fold records into the live
// set, drop the torn tail, rewrite, reopen for append. Three record kinds:
//
//	{"op":"put","query":{...}}                     register (or restate) a query
//	{"op":"state","id":...,"version":...,"members":[...],"event_id":...}  last evaluated result
//	{"op":"delete","id":...}                       unregister
//
// A record is durable once Append returns (fsynced). State records let a
// restarted server diff its first post-restart evaluation against the last
// result the subscribers saw, so the first event carries a true delta at the
// converged version instead of a full join. They also carry the ID of the
// last event published to subscribers: the restored hub seeds its counter
// from it, so post-restart events continue the numbering a resuming
// subscriber's Last-Event-ID cursor was built on instead of restarting at 1
// (which the SDK would silently drop as already-seen).
type Sidecar struct{ log *durable.Log }

const sidecarMagic = "RSQSCv1\n"

type sidecarRec struct {
	Op      string                `json:"op"`
	Query   *client.StandingQuery `json:"query,omitempty"`
	ID      string                `json:"id,omitempty"`
	Version uint64                `json:"version,omitempty"`
	Members []int32               `json:"members,omitempty"`
	// Evaluated distinguishes a state record for an empty community from
	// "never evaluated" when Members is empty.
	Evaluated bool `json:"evaluated,omitempty"`
	// EventID is the ID of the last event published to this query's
	// subscribers when the record was written (0 while none). On put records
	// it appears only via compaction, folding the last state's counter in.
	EventID uint64 `json:"event_id,omitempty"`
}

// Restored is one registration recovered from a sidecar: the query spec with
// its last persisted result folded in (Version / Members / NoCommunity), plus
// the last event ID published to its subscribers before the shutdown — the
// seed for the rebuilt hub's counter.
type Restored struct {
	Query       client.StandingQuery
	LastEventID uint64
}

// OpenSidecar opens (creating if absent) the sidecar at path and returns the
// live registrations with their last persisted result and event counter
// folded in, in registration order. The on-disk file is compacted to one put
// record per live query.
func OpenSidecar(path string) (*Sidecar, []Restored, error) {
	payloads, err := durable.Read(path, sidecarMagic)
	if err != nil {
		return nil, nil, err
	}
	live := foldRecords(payloads)
	recs := make([][]byte, len(live))
	for i, r := range live {
		qq := r.Query
		if recs[i], err = json.Marshal(sidecarRec{Op: "put", Query: &qq, EventID: r.LastEventID}); err != nil {
			return nil, nil, fmt.Errorf("standing: encode sidecar: %w", err)
		}
	}
	log, err := durable.Rewrite(path, sidecarMagic, recs)
	if err != nil {
		return nil, nil, err
	}
	return &Sidecar{log: log}, live, nil
}

// foldRecords replays the records into the live registration set, stopping
// at the first one that does not decode. Event counters only ratchet up: a
// stray late record can never rewind the seed below an ID a subscriber
// already acked.
func foldRecords(payloads [][]byte) []Restored {
	byID := make(map[string]*Restored)
	var order []string
	for _, p := range payloads {
		var rec sidecarRec
		if err := json.Unmarshal(p, &rec); err != nil {
			break
		}
		switch rec.Op {
		case "put":
			if rec.Query == nil || rec.Query.ID == "" {
				continue
			}
			q := *rec.Query
			if _, ok := byID[q.ID]; !ok {
				order = append(order, q.ID)
			}
			byID[q.ID] = &Restored{Query: q, LastEventID: rec.EventID}
		case "state":
			if r, ok := byID[rec.ID]; ok {
				r.Query.Version = rec.Version
				r.Query.Members = rec.Members
				r.Query.NoCommunity = rec.Evaluated && len(rec.Members) == 0
				if rec.EventID > r.LastEventID {
					r.LastEventID = rec.EventID
				}
			}
		case "delete":
			if _, ok := byID[rec.ID]; ok {
				delete(byID, rec.ID)
			}
		}
	}
	out := make([]Restored, 0, len(byID))
	for _, id := range order {
		if r, ok := byID[id]; ok {
			out = append(out, *r)
		}
	}
	return out
}

func (s *Sidecar) append(rec sidecarRec) error {
	p, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("standing: encode sidecar record: %w", err)
	}
	return s.log.Append(p)
}

// AppendPut journals a registration.
func (s *Sidecar) AppendPut(q client.StandingQuery) error {
	return s.append(sidecarRec{Op: "put", Query: &q})
}

// AppendState journals a query's last evaluated result together with the ID
// of the last event published to its subscribers.
func (s *Sidecar) AppendState(id string, version uint64, members []int32, eventID uint64) error {
	return s.append(sidecarRec{Op: "state", ID: id, Version: version, Members: members, Evaluated: true, EventID: eventID})
}

// AppendDelete journals an unregistration.
func (s *Sidecar) AppendDelete(id string) error {
	return s.append(sidecarRec{Op: "delete", ID: id})
}

// Close closes the sidecar file. Further appends fail.
func (s *Sidecar) Close() error { return s.log.Close() }

// Remove closes the sidecar and deletes it from disk (dataset removal).
func (s *Sidecar) Remove() error { return s.log.Remove() }
