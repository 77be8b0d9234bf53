package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// sameDecoding holds Parse to the reference tree reader on one input: the
// same verdict, and a deep-equal Spec whenever both accept.
func sameDecoding(t testing.TB, data []byte) {
	t.Helper()
	got, err := Parse(data)
	want, refErr := refParse(data)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("verdicts differ on %q:\n Parse:     %v\n reference: %v", data, err, refErr)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("specs differ on %q:\n Parse:     %+v\n reference: %+v", data, got, want)
	}
}

// TestDecodersAgree runs the differential over the suite specs and every
// golden row; FuzzScenarioSpec runs it over the committed corpus.
func TestDecodersAgree(t *testing.T) {
	inputs := suiteSources(t)
	for _, tc := range parseGoldenCases {
		inputs = append(inputs, []byte(tc.in))
	}
	for _, tc := range validateGoldenCases {
		s := validSpec()
		tc.mutate(s)
		inputs = append(inputs, canonical(t, s))
	}
	for _, in := range inputs {
		sameDecoding(t, in)
	}
}

// TestSuiteCanonicalBytes holds each suite spec's canonical encoding to
// the bytes the tree reader decoded it to. A suite spec edited on purpose
// gets its file rewritten from this test's output.
func TestSuiteCanonicalBytes(t *testing.T) {
	for _, s := range Suite() {
		got := canonical(t, s)
		want, err := os.ReadFile(filepath.Join("testdata", "canonical", s.Name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: canonical bytes changed:\n%s\nwant\n%s", s.Name, got, want)
		}
	}
	if ents, _ := os.ReadDir(filepath.Join("testdata", "canonical")); len(ents) != len(Suite()) {
		t.Errorf("testdata/canonical holds %d files for %d suite specs", len(ents), len(Suite()))
	}
}
