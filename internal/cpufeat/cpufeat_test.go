package cpufeat

import (
	"runtime"
	"strings"
	"testing"
)

func TestDetectCached(t *testing.T) {
	a, b := Detect(), Detect()
	if a != b {
		t.Fatalf("Detect not stable: %+v vs %+v", a, b)
	}
}

func TestBaseline(t *testing.T) {
	f := Detect()
	// Under the noasm tag (or off amd64) detection reports nothing; when
	// anything was detected the amd64 SSE2 baseline must be present.
	if f.String() != "" && runtime.GOARCH == "amd64" && !f.SSE2 {
		t.Fatalf("amd64 detection reported features without the SSE2 baseline: %q", f)
	}
	// Implication chain: the Usable predicates require OS YMM support.
	if f.UsableAVX2() && !f.OSYMM {
		t.Fatal("UsableAVX2 true without OS YMM state support")
	}
	if f.UsableAVX512() && !f.AVX512F {
		t.Fatal("UsableAVX512 true without AVX512F")
	}
	if f.UsableAMXInt8() && !(f.UsableAVX512() && f.AMXInt8 && f.OSAMX) {
		t.Fatal("UsableAMXInt8 true without AVX-512, AMX-INT8 or OS tile state")
	}
}

func TestStringNames(t *testing.T) {
	f := Features{SSE2: true, SSE41: true, AVX2: true}
	got := f.String()
	if got != "sse2,sse4.1,avx2" {
		t.Fatalf("String() = %q, want sse2,sse4.1,avx2", got)
	}
	if (Features{}).String() != "" {
		t.Fatalf("empty feature set should render empty, got %q", Features{}.String())
	}
	all := Features{SSE2: true, SSE41: true, SSE42: true, AVX: true, FMA: true,
		AVX2: true, AVX512F: true, AVX512BW: true, AVX512VL: true, OSYMM: true}
	all.AMXTile, all.AMXInt8 = true, true
	for _, want := range []string{"sse2", "sse4.2", "fma", "avx512bw", "avx512vl", "amx-tile", "amx-int8"} {
		if !strings.Contains(all.String(), want) {
			t.Fatalf("String() missing %q: %q", want, all.String())
		}
	}
}
