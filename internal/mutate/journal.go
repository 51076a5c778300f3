package mutate

import (
	"encoding/binary"
	"math"

	"roadsocial/internal/durable"
)

// Journal is a per-dataset append-only mutation log (WAL): a durable.Log
// whose records are journaled ops. Its open path compacts: read everything,
// drop obsolete and torn records, rewrite, reopen for append.
//
// Layout:
//
//	magic "RMUTJv1\n" (8 bytes)
//	record*: durable frames (uvarint payloadLen | payload | crc32(payload) LE32)
//	payload: uvarint version | kind byte | kind-specific fields
//	  InsertEdge/DeleteEdge: uvarint u | uvarint v
//	  SetAttrs:              uvarint u | uvarint dim | dim × float64 LE
//	  MoveUser:              uvarint user | onEdge byte |
//	                         uvarint u [| uvarint v | float64 LE off]
//
// A record is durable once Append returns: appends are fsynced. A torn tail
// (partial last record after a crash) is detected by length/CRC and dropped
// at the next open; everything before it replays.
type Journal struct{ log *durable.Log }

// Record is one journaled mutation with the dataset version it produced.
type Record struct {
	Version uint64
	Op      Op
}

const journalMagic = "RMUTJv1\n"

// OpenJournal opens (creating if absent) the mutation journal at path,
// returning the journal ready for appends and the records that must replay
// on top of a base snapshot at version base — i.e. records with
// Version > base, in order. Obsolete records and any torn tail are dropped
// from disk by rewriting the compacted journal.
func OpenJournal(path string, base uint64) (*Journal, []Record, error) {
	payloads, err := durable.Read(path, journalMagic)
	if err != nil {
		return nil, nil, err
	}
	var recs []Record
	var live [][]byte
	for _, p := range payloads {
		r, ok := decodePayload(p)
		if !ok {
			break
		}
		if r.Version > base {
			recs = append(recs, r)
			live = append(live, p)
		}
	}
	log, err := durable.Rewrite(path, journalMagic, live)
	if err != nil {
		return nil, nil, err
	}
	return &Journal{log: log}, recs, nil
}

// Append journals recs and fsyncs once. On error nothing of recs is
// durable, so callers must not install the mutation.
func (j *Journal) Append(recs []Record) error {
	payloads := make([][]byte, len(recs))
	for i, r := range recs {
		payloads[i] = encodePayload(r)
	}
	return j.log.Append(payloads...)
}

// Close closes the journal file. Further appends fail.
func (j *Journal) Close() error { return j.log.Close() }

// Remove closes the journal and deletes it from disk (dataset removal).
func (j *Journal) Remove() error { return j.log.Remove() }

// encodePayload serializes one record.
func encodePayload(r Record) []byte {
	payload := make([]byte, 0, 48)
	payload = binary.AppendUvarint(payload, r.Version)
	payload = append(payload, byte(r.Op.Kind))
	switch r.Op.Kind {
	case InsertEdge, DeleteEdge:
		payload = binary.AppendUvarint(payload, uint64(uint32(r.Op.U)))
		payload = binary.AppendUvarint(payload, uint64(uint32(r.Op.V)))
	case SetAttrs:
		payload = binary.AppendUvarint(payload, uint64(uint32(r.Op.U)))
		payload = binary.AppendUvarint(payload, uint64(len(r.Op.Attrs)))
		for _, x := range r.Op.Attrs {
			payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(x))
		}
	case MoveUser:
		payload = binary.AppendUvarint(payload, uint64(uint32(r.Op.U)))
		if r.Op.Loc.OnEdge {
			payload = append(payload, 1)
			payload = binary.AppendUvarint(payload, uint64(uint32(r.Op.Loc.U)))
			payload = binary.AppendUvarint(payload, uint64(uint32(r.Op.Loc.V)))
			payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(r.Op.Loc.Off))
		} else {
			payload = append(payload, 0)
			payload = binary.AppendUvarint(payload, uint64(uint32(r.Op.Loc.U)))
		}
	}
	return payload
}

// decodePayload decodes one record payload.
func decodePayload(p []byte) (Record, bool) {
	var r Record
	ver, n := binary.Uvarint(p)
	if n <= 0 || n >= len(p) {
		return r, false
	}
	r.Version = ver
	r.Op.Kind = Kind(p[n])
	p = p[n+1:]
	u32 := func() (int32, bool) {
		v, n := binary.Uvarint(p)
		if n <= 0 || v > math.MaxUint32 {
			return 0, false
		}
		p = p[n:]
		return int32(uint32(v)), true
	}
	f64 := func() (float64, bool) {
		if len(p) < 8 {
			return 0, false
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(p))
		p = p[8:]
		return v, true
	}
	switch r.Op.Kind {
	case InsertEdge, DeleteEdge:
		u, ok1 := u32()
		v, ok2 := u32()
		if !ok1 || !ok2 {
			return r, false
		}
		r.Op.U, r.Op.V = u, v
	case SetAttrs:
		u, ok := u32()
		if !ok {
			return r, false
		}
		dim, n := binary.Uvarint(p)
		if n <= 0 || dim > 1<<16 {
			return r, false
		}
		p = p[n:]
		attrs := make([]float64, dim)
		for i := range attrs {
			x, ok := f64()
			if !ok {
				return r, false
			}
			attrs[i] = x
		}
		r.Op.U, r.Op.Attrs = u, attrs
	case MoveUser:
		u, ok := u32()
		if !ok || len(p) < 1 {
			return r, false
		}
		onEdge := p[0]
		p = p[1:]
		r.Op.U = u
		switch onEdge {
		case 0:
			lu, ok := u32()
			if !ok {
				return r, false
			}
			r.Op.Loc = LocSpec{U: lu}
		case 1:
			lu, ok1 := u32()
			lv, ok2 := u32()
			off, ok3 := f64()
			if !ok1 || !ok2 || !ok3 {
				return r, false
			}
			r.Op.Loc = LocSpec{OnEdge: true, U: lu, V: lv, Off: off}
		default:
			return r, false
		}
	default:
		return r, false
	}
	return r, len(p) == 0
}
