package dataset

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// v2Image serializes the shared test network into a v2 byte image.
func v2Image(t testing.TB) []byte {
	t.Helper()
	net, _, _, _ := snapshotNetwork(t)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, net); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fixCRC recomputes the header checksum after a deliberate mutation, so the
// corruption under test is reached instead of masked by the CRC check.
func fixCRC(b []byte) {
	binary.LittleEndian.PutUint32(b[16:20], crc32.ChecksumIEEE(b[v2HeaderLen:]))
}

// TestSnapshotV2Corruption: every class of v2 corruption — bad magic,
// flipped payload bytes, truncation, misaligned or out-of-bounds section
// offsets, hostile sizes, broken section content — errors cleanly through
// both the buffered reader and the file loader (mmap or fallback). Nothing
// panics; nothing half-loads.
func TestSnapshotV2Corruption(t *testing.T) {
	valid := v2Image(t)
	// Byte offset of the first section-table entry's off/len fields.
	const e0Off, e0Len, e0Kind = v2HeaderLen + 8, v2HeaderLen + 16, v2HeaderLen

	cases := []struct {
		name   string
		mutate func(b []byte) []byte
	}{
		{"bad magic", func(b []byte) []byte {
			b[3] = 'X'
			return b
		}},
		{"crc mismatch", func(b []byte) []byte {
			b[len(b)/2] ^= 0x40
			return b
		}},
		{"truncated", func(b []byte) []byte {
			return b[:len(b)-5]
		}},
		{"file size beyond limit", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8:16], 1<<40)
			return b
		}},
		{"file size below header", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8:16], 10)
			return b[:10]
		}},
		{"zero sections", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[20:24], 0)
			fixCRC(b)
			return b
		}},
		{"section table past eof", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[20:24], 1<<20)
			fixCRC(b)
			return b
		}},
		{"misaligned section offset", func(b []byte) []byte {
			off := binary.LittleEndian.Uint64(b[e0Off : e0Off+8])
			binary.LittleEndian.PutUint64(b[e0Off:e0Off+8], off+4)
			fixCRC(b)
			return b
		}},
		{"section length past eof", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[e0Len:e0Len+8], 1<<40)
			fixCRC(b)
			return b
		}},
		{"section offset past eof", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[e0Off:e0Off+8], uint64(len(b)+8))
			fixCRC(b)
			return b
		}},
		{"unknown section kind", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[e0Kind:e0Kind+4], 99)
			fixCRC(b)
			return b
		}},
		{"duplicate section kind", func(b []byte) []byte {
			kind := binary.LittleEndian.Uint32(b[e0Kind : e0Kind+4])
			binary.LittleEndian.PutUint32(b[e0Kind+v2TableEntryLen:e0Kind+v2TableEntryLen+4], kind)
			fixCRC(b)
			return b
		}},
		{"odd-length int64 section", func(b []byte) []byte {
			// Shrink the road-offset section (table entry index 2) by one
			// byte so it stops being a whole number of int64s.
			e := v2HeaderLen + 2*v2TableEntryLen
			l := binary.LittleEndian.Uint64(b[e+16 : e+24])
			binary.LittleEndian.PutUint64(b[e+16:e+24], l-1)
			fixCRC(b)
			return b
		}},
		{"garbage csr offsets", func(b []byte) []byte {
			// Scribble over the road-offset section: GraphFromCSR must
			// reject the arrays rather than adopt them.
			e := v2HeaderLen + 2*v2TableEntryLen
			off := binary.LittleEndian.Uint64(b[e+8 : e+16])
			binary.LittleEndian.PutUint64(b[off:off+8], ^uint64(0)>>1)
			fixCRC(b)
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			img := tc.mutate(append([]byte(nil), valid...))
			if _, err := ReadSnapshot(bytes.NewReader(img)); err == nil {
				t.Error("buffered reader accepted the corruption")
			}
			path := filepath.Join(t.TempDir(), "bad.snap")
			if err := os.WriteFile(path, img, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := ReadSnapshotFile(path); err == nil {
				t.Error("file loader accepted the corruption")
			}
		})
	}
}

// TestSnapshotV2GTreeSlabConsistency: the optional G-tree sections travel
// as a set — a snapshot whose table carries the topology but not the slabs
// is rejected, not loaded as a partial index.
func TestSnapshotV2GTreeSlabConsistency(t *testing.T) {
	valid := v2Image(t)
	count := binary.LittleEndian.Uint32(valid[20:24])
	if count != 8 {
		t.Fatalf("test image has %d sections, want 8 (with gtree)", count)
	}
	// The writer emits GTMeta, GTI32, GTF64 last: truncating the table by
	// two entries leaves the topology without its slabs.
	img := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(img[20:24], count-2)
	fixCRC(img)
	if _, err := ReadSnapshot(bytes.NewReader(img)); err == nil {
		t.Error("snapshot with gtree topology but no slabs was accepted")
	}
}

// FuzzReadSnapshot drives both snapshot readers over arbitrary bytes: any
// input may error, none may panic, over-allocate against a small limit, or
// produce an invalid network.
func FuzzReadSnapshot(f *testing.F) {
	net, _, _, _ := snapshotNetwork(f)
	var v2 bytes.Buffer
	if err := WriteSnapshot(&v2, net); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())
	truncated := v2.Bytes()[:v2.Len()/2]
	f.Add(truncated)
	flipped := append([]byte(nil), v2.Bytes()...)
	flipped[len(flipped)/3] ^= 0xff
	f.Add(flipped)
	misaligned := append([]byte(nil), v2.Bytes()...)
	off := binary.LittleEndian.Uint64(misaligned[v2HeaderLen+8 : v2HeaderLen+16])
	binary.LittleEndian.PutUint64(misaligned[v2HeaderLen+8:v2HeaderLen+16], off+4)
	fixCRC(misaligned)
	f.Add(misaligned)
	f.Add([]byte(snapshotMagicV2))
	f.Add([]byte{})
	// The optional sections: a version stamp present, the G-tree absent.
	var stamped, plain bytes.Buffer
	if err := WriteSnapshotVersion(&stamped, net, 9); err != nil {
		f.Fatal(err)
	}
	f.Add(stamped.Bytes())
	bare := *net
	bare.Oracle = nil
	if err := WriteSnapshot(&plain, &bare); err != nil {
		f.Fatal(err)
	}
	f.Add(plain.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		net, err := ReadSnapshotLimit(bytes.NewReader(data), 1<<22)
		if err == nil {
			if net == nil {
				t.Fatal("nil network without error")
			}
			if err := net.Validate(); err != nil {
				t.Fatalf("reader returned an invalid network: %v", err)
			}
		}
	})
}
