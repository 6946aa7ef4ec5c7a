package serve

// Fuzz targets for the bytes and strings the server takes from
// outside: each asserts "error, never panic", and round-trips where an
// encoder exists. The checked-in corpora under testdata/fuzz seed the
// hostile shapes (a header claiming 2^32-1 pairs, truncated records,
// over-long specs); `make ci` fuzzes each target briefly.

import (
	"encoding/binary"
	"strings"
	"testing"
)

// encodeBatchFrame is the test-side encoder of the XGFB layout that
// writeBatchBinary streams.
func encodeBatchFrame(fr *BatchFrame) []byte {
	b := append([]byte("XGFB"), binaryBatchVersion)
	var flags byte
	if fr.Degraded {
		flags = 1
	}
	b = append(b, flags, 0, 0)
	b = binary.LittleEndian.AppendUint64(b, fr.Gen)
	b = binary.LittleEndian.AppendUint64(b, fr.Staleness)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(fr.Paths)))
	for _, ids := range fr.Paths {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(ids)))
		for _, id := range ids {
			b = binary.LittleEndian.AppendUint32(b, id)
		}
	}
	return b
}

func FuzzDecodeBatchFrame(f *testing.F) {
	f.Add(encodeBatchFrame(&BatchFrame{Gen: 3, Paths: [][]uint32{{0, 2}, {}, {7}}}))
	f.Add(encodeBatchFrame(&BatchFrame{Degraded: true, Staleness: 1}))
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := DecodeBatchFrame(data)
		if err != nil {
			return
		}
		// The decoder ignores the flag bits above bit 0 and the
		// reserved bytes; everything else must re-encode exactly.
		want := append([]byte(nil), data...)
		want[5] &= 1
		want[6], want[7] = 0, 0
		if got := encodeBatchFrame(fr); string(got) != string(want) {
			t.Fatalf("round trip changed the frame:\n got  %x\n want %x", got, want)
		}
	})
}

func FuzzParseFabricSpec(f *testing.F) {
	for _, s := range []string{
		"edge:2;4,4;1,4",
		"edge:2;4,4;1,4:d-mod-k:4:2012",
		"x:3;4,4,8;1,4,4:disjoint::",
		"a:b:c:0",
		"a:b:c:1:-9223372036854775808",
		":::::",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseFabricSpec(s)
		if err != nil {
			return
		}
		if spec.Name == "" || spec.XGFT == "" || spec.Scheme == "" || spec.K < 1 {
			t.Fatalf("%q parsed to an incomplete spec %+v", s, spec)
		}
		for _, field := range []string{spec.Name, spec.XGFT, spec.Scheme} {
			if strings.Contains(field, ":") {
				t.Fatalf("%q: field %q kept a separator", s, field)
			}
		}
	})
}
