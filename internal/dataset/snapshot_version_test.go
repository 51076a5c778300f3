package dataset

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"path/filepath"
	"testing"
)

// TestSnapshotVersionStamp proves the RSNAPv2 version stamp round-trips
// through both the buffered and the file loaders, and that unstamped files
// (version 0) stay byte-identical to pre-stamp writers.
func TestSnapshotVersionStamp(t *testing.T) {
	net, _, _, _ := snapshotNetwork(t)

	var plain, zero, stamped bytes.Buffer
	if err := WriteSnapshot(&plain, net); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshotVersion(&zero, net, 0); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshotVersion(&stamped, net, 77); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), zero.Bytes()) {
		t.Fatalf("version-0 snapshot differs from unversioned snapshot")
	}
	if bytes.Equal(plain.Bytes(), stamped.Bytes()) {
		t.Fatalf("stamped snapshot identical to unstamped")
	}

	if _, v, err := ReadSnapshotLimitVersion(bytes.NewReader(stamped.Bytes()), DefaultMaxSnapshotBytes); err != nil || v != 77 {
		t.Fatalf("buffered load: version=%d err=%v, want 77/nil", v, err)
	}
	if _, v, err := ReadSnapshotLimitVersion(bytes.NewReader(plain.Bytes()), DefaultMaxSnapshotBytes); err != nil || v != 0 {
		t.Fatalf("unstamped buffered load: version=%d err=%v, want 0/nil", v, err)
	}

	path := filepath.Join(t.TempDir(), "net.snap")
	if err := WriteSnapshotFileVersion(path, net, 1234567); err != nil {
		t.Fatal(err)
	}
	got, v, err := ReadSnapshotFileVersion(path)
	if err != nil || v != 1234567 {
		t.Fatalf("file load: version=%d err=%v, want 1234567/nil", v, err)
	}
	if got.Social.N() != net.Social.N() || got.Social.M() != net.Social.M() {
		t.Fatalf("stamped snapshot corrupted the network")
	}

	// A malformed stamp (wrong length) must be rejected, not misread.
	raw := stamped.Bytes()
	// Find the version section table entry and corrupt its length field.
	count := int(le32(raw[20:24]))
	for i := 0; i < count; i++ {
		e := raw[24+i*24:]
		if le32(e[0:4]) == secVersion {
			e[16] = 4 // shrink declared length
		}
	}
	binary.LittleEndian.PutUint32(raw[16:20], crc32.ChecksumIEEE(raw[v2HeaderLen:]))
	if _, _, err := ReadSnapshotLimitVersion(bytes.NewReader(raw), DefaultMaxSnapshotBytes); err == nil {
		t.Fatalf("4-byte version section accepted")
	}
}

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
