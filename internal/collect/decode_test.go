package collect

// DecodeObservations against encoding/json, the decoder it replaces on the
// push path: the same observations for every body both accept, and a
// refusal only where the two documented narrowings (exact member names,
// nothing after the value) part from encoding/json.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"malgraph/internal/world"
)

// oracleRequest is the request struct the observations handler decoded
// into with encoding/json before DecodeObservations.
type oracleRequest struct {
	Observations []Observation `json:"observations"`
}

func oracleDecode(body []byte) ([]Observation, error) {
	var req oracleRequest
	err := json.Unmarshal(body, &req)
	return req.Observations, err
}

// wireNames lists every member name of the push wire shape.
var wireNames = [][]string{bodyNames, obsNames, coordNames, artNames, fileNames}

// hasFoldedName reports whether any string token of a valid JSON body
// equals a wire member name only under encoding/json's case folding — a
// body encoding/json may decode differently from an exact-name reading.
func hasFoldedName(body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		s, ok := tok.(string)
		if !ok {
			continue
		}
		folded := string(foldName([]byte(s)))
		for _, names := range wireNames {
			for _, name := range names {
				if s != name && folded == string(foldName([]byte(name))) {
					return true
				}
			}
		}
	}
}

// checkAgainstOracle is the fuzz property: what the decoder accepts
// encoding/json accepts with a deeply equal value, and what encoding/json
// accepts with exact member names the decoder accepts.
func checkAgainstOracle(t *testing.T, body []byte) {
	t.Helper()
	got, err := DecodeObservations(body)
	want, oerr := oracleDecode(body)
	switch {
	case err == nil && oerr != nil:
		t.Fatalf("decoder accepted a body encoding/json refuses (%v): %q", oerr, body)
	case err == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("decoded %#v, encoding/json %#v: %q", got, want, body)
	case err != nil && oerr == nil && !hasFoldedName(body):
		t.Fatalf("decoder refused a body encoding/json accepts with exact names: %v: %q", err, body)
	case err != nil && !errors.Is(err, ErrBadObservation):
		t.Fatalf("decode error %v does not wrap ErrBadObservation", err)
	}
}

const canonicalObs = `{"source":3,"coord":{"ecosystem":2,"name":"left-pad","version":"1.0.0"},` +
	`"observedAt":"2023-05-01T12:00:00Z","artifact":{"coord":{"ecosystem":2,"name":"left-pad","version":"1.0.0"},` +
	`"description":"pads","files":[{"path":"index.js","content":"module.exports = 1;\n<script>"}]}}`

func TestDecodeObservationsMatchesEncodingJSON(t *testing.T) {
	for _, body := range []string{
		`{"observations":[` + canonicalObs + `]}`,
		`{"observations":[` + canonicalObs + `,` + canonicalObs + `]}`,
		"null", " \t\r\n{}\n", `{"observations":null}`, `{"observations":[]}`,
		`{"observations":[null,{}]}`,
		// Reordered members, whitespace, an escaped member name, unknown
		// members of every shape and a null artifact.
		`{ "extra" : [1, -2.5e+3, {"a": [true, false, null]}, "s"] ,
		   "observations" : [ { "artifact" : null , "observedAt" : "2023-05-01T12:00:00+02:00",
		   "source" : 4 , "coord" : { "version" : "2" , "name" : "x" , "ecosystem" : 1 , "hash" : "h" } } ] }`,
		// Escapes, surrogate pairs, lone surrogates and invalid UTF-8.
		`{"observations":[{"coord":{"name":"é😀\ud800x\udc00\ud800A\"\\\/\b\f\n\r\t","version":"` + "\xff\xfe\xed\xa0\x80" + `ok"}}]}`,
		// Nulls leave what they meet.
		`{"observations":[{"source":null,"coord":null,"observedAt":null,"artifact":{"files":null,"coord":null,"description":null}}]}`,
		// Integers as ParseInt reads them.
		`{"observations":[{"source":-0,"coord":{"ecosystem":9223372036854775807}}]}`,
		// Repeated members decode over the first, slices and pointers
		// reused in place.
		`{"observations":[{"artifact":{"description":"a","files":[{"path":"p1","content":"c1"},{"path":"p2"},{"path":"p3"}]},` +
			`"artifact":{"files":[{"path":"q1"}]},"artifact":{"files":[null,{}]}}],"observations":[{"source":7}]}`,
		`{"observations":[{"artifact":{"files":[]},"artifact":{"files":[null]}}]}`,
		`{"observations":[{"source":1},{"source":2}],"observations":[{"coord":{"name":"n"}}]}`,
		`{"observations":[{"coord":{"name":"a"}},{"coord":{"name":"b"}},{"coord":{"name":"c"}}],"observations":[{}],"observations":[{},{}]}`,
	} {
		if _, err := oracleDecode([]byte(body)); err != nil {
			t.Fatalf("encoding/json refuses the case itself: %v: %q", err, body)
		}
		if _, err := DecodeObservations([]byte(body)); err != nil {
			t.Errorf("refused %q: %v", body, err)
			continue
		}
		checkAgainstOracle(t, []byte(body))
	}
}

func TestDecodeObservationsRefuses(t *testing.T) {
	deep := `{"x":` + strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth) + `}`
	for _, c := range []struct {
		body   string
		oracle bool // the handler's json.Decoder took it: one of the two narrowings
	}{
		{`{"observations":[]} x`, true},
		{`{"observations":[]}{}`, true},
		{`{"Observations":[]}`, true},
		{`{"observations":[{"ſource":1}]}`, true},
		{`{"observations":[{"coord":{"NAME":"x"}}]}`, true},
		{"", false},
		{"  ", false},
		{`[]`, false},
		{`{"observations":{}}`, false},
		{`{"observations":[1]}`, false},
		{`{"observations":[{"source":1.5}]}`, false},
		{`{"observations":[{"source":1e2}]}`, false},
		{`{"observations":[{"source":9223372036854775808}]}`, false},
		{`{"observations":[{"source":"3"}]}`, false},
		{`{"observations":[{"source":01}]}`, false},
		{`{"observations":[{"coord":{"name":5}}]}`, false},
		{`{"observations":[{"coord":[]}]}`, false},
		{`{"observations":[{"artifact":"a"}]}`, false},
		{`{"observations":[{"artifact":{"files":{}}}]}`, false},
		{`{"observations":[{"observedAt":"yesterday"}]}`, false},
		{`{"observations":[{"observedAt":5}]}`, false},
		{`{"observations":[{"coord":{"name":"\'"}}]}`, false},
		{`{"observations":[{"coord":{"name":"\u12"}}]}`, false},
		{"{\"observations\":[{\"coord\":{\"name\":\"a\nb\"}}]}", false},
		{`{"observations":[{"source":1,}]}`, false},
		{`{"observations":[{},]}`, false},
		{`{"observations":[{"source":1]}`, false},
		{`{"observations":[{"source":1}`, false},
		{`{"observations":[{"x":tru}]}`, false},
		{`{"observations":[{"x":-}]}`, false},
		{`{"observations":[{"x":1.}]}`, false},
		{`{"observations":[{"x":"unterminated}]}`, false},
		{deep, false},
	} {
		var req oracleRequest
		oerr := json.NewDecoder(strings.NewReader(c.body)).Decode(&req)
		if (oerr == nil) != c.oracle {
			t.Fatalf("encoding/json error %v on %q, want accepted=%v", oerr, c.body, c.oracle)
		}
		_, err := DecodeObservations([]byte(c.body))
		if err == nil {
			t.Errorf("accepted %.80q", c.body)
		} else if !errors.Is(err, ErrBadObservation) {
			t.Errorf("error %v does not wrap ErrBadObservation", err)
		}
	}
	// One level shallower is within both decoders' limit.
	ok := `{"x":` + strings.Repeat("[", maxDepth-1) + strings.Repeat("]", maxDepth-1) + `}`
	checkAgainstOracle(t, []byte(ok))
	if _, err := DecodeObservations([]byte(ok)); err != nil {
		t.Errorf("refused nesting at the limit: %v", err)
	}
}

// pushBodies cuts the seed-1 world's timeline-sorted observation stream
// into the 200 bodies the serve benchmark pushes at the given scale.
func pushBodies(t testing.TB, scale float64) [][]byte {
	t.Helper()
	w, err := world.Build(world.Config{Seed: 1, Scale: scale})
	if err != nil {
		t.Fatal(err)
	}
	obs := ObservationsFromSources(w.Sources)
	const n = 200
	bodies := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		body, err := json.Marshal(map[string]any{"observations": obs[i*len(obs)/n : (i+1)*len(obs)/n]})
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	return bodies
}

func TestDecodeObservationsWorldBodies(t *testing.T) {
	for _, scale := range []float64{0.05, 0.5} {
		t.Run(fmt.Sprint(scale), func(t *testing.T) {
			if scale > 0.1 && testing.Short() {
				t.Skip("scale-0.5 world in -short mode")
			}
			for i, body := range pushBodies(t, scale) {
				got, err := DecodeObservations(body)
				if err != nil {
					t.Fatalf("body %d: %v", i, err)
				}
				want, err := oracleDecode(body)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) == 0 || !reflect.DeepEqual(got, want) {
					t.Fatalf("body %d: decoded %d observations unequal to encoding/json's %d", i, len(got), len(want))
				}
			}
		})
	}
}

// FuzzDecodeObservations drives arbitrary bodies through the decoder and
// encoding/json (checkAgainstOracle). Seeds live in
// testdata/fuzz/FuzzDecodeObservations.
func FuzzDecodeObservations(f *testing.F) {
	f.Add([]byte(`{"observations":[` + canonicalObs + `]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAgainstOracle(t, body)
	})
}

// BenchmarkDecodeObservations decodes the 200 push bodies of the seed-1,
// scale-0.5 world, one body per op, with the decoder and with the
// encoding/json decode it replaces.
func BenchmarkDecodeObservations(b *testing.B) {
	bodies := pushBodies(b, 0.5)
	var total int
	for _, body := range bodies {
		total += len(body)
	}
	for _, bc := range []struct {
		name   string
		decode func([]byte) ([]Observation, error)
	}{
		{"decoder", DecodeObservations},
		{"encoding_json", func(body []byte) ([]Observation, error) {
			var req oracleRequest
			err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
			return req.Observations, err
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(total / len(bodies)))
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				if _, err := bc.decode(bodies[i%len(bodies)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
