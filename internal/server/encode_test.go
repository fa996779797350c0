package server

// The response encoder against encoding/json, which stays the oracle:
// for every response the server can build, the appended bytes equal
// json.NewEncoder(&buf).Encode(v)'s, whether the samples are formatted
// from the vector or copied from a cache entry's retained text.

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
)

// sampleTable holds the floats whose spelling encoding/json decides by
// rule: both zeros, denormals, either side of the 1e-6 and 1e21 format
// switches (and of 1e-7, where the exponent clean-up starts to matter),
// the largest finite value, and integers past 2^53.
var sampleTable = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 120.5, 1.0 / 3,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072014e-308,
	1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1),
	1e-7, math.Nextafter(1e-7, 0), math.Nextafter(1e-7, 1), 1e-9, 1e-10, -1.5e-11, 1e-100,
	1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), -1e21, 1e22, 1e100,
	math.MaxFloat64, -math.MaxFloat64,
	1 << 53, 1<<53 + 2, -(1 << 53) - 2, 1 << 62, 9007199254740993,
}

func oracleJSON(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("encoding/json refused %+v: %v", v, err)
	}
	return buf.Bytes()
}

func TestEncoderMatchesEncodingJSON(t *testing.T) {
	full := QueryResponse{
		Tenant: "acme", EffectiveSeed: math.MaxUint64, Iterations: 2500, Shards: 3, Cached: true,
		Summary: Summary{N: 2500, Mean: 120.25, Variance: 1e-7, CI95: 1e21, Median: math.Copysign(0, -1)},
		Offset:  10, NextOffset: 10 + len(sampleTable), Samples: sampleTable,
	}
	withLineage := full
	withLineage.Lineage = [][]int{{0, 1, 2}, {}, nil, {-7, math.MaxInt64}}
	emptyPage := full
	emptyPage.Offset, emptyPage.NextOffset, emptyPage.Samples = 2500, -1, sampleTable[:0]
	type named struct {
		name string
		q    QueryResponse
	}
	queries := []named{
		{"zero value", QueryResponse{}}, {"all fields", full}, {"lineage", withLineage}, {"empty page", emptyPage},
		{"empty lineage", QueryResponse{Tenant: "t", Samples: []float64{1}, Lineage: [][]int{}}},
	}
	for _, tenant := range []string{
		`quo"te`, `back\slash`, "<script>&amp;</script>", "line\u2028sep\u2029", "bad\xffutf8\xc3",
		"ctl\x00\x1f\b\f\n\r\t\x7f", "héllo, 世界 😀", "",
	} {
		r := full
		r.Tenant = tenant
		queries = append(queries, named{"tenant " + tenant, r})
	}
	for _, c := range queries {
		name, q := c.name, c.q
		got, err := q.appendJSON(nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := oracleJSON(t, &q); !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %s\nwant %s", name, got, want)
		}
		// The same response as a cache hit carries it: the page's text
		// cut out of the text of a longer vector.
		if len(q.Samples) > 0 {
			vec := append(append([]float64{-3, 4.5}, q.Samples...), 9e99)
			ends := make([]uint32, len(vec))
			text, err := appendSamples(nil, vec, 0, ends)
			if err != nil {
				t.Fatal(err)
			}
			q.sampleText = text[ends[1]+1 : ends[len(vec)-2]]
			got, err := q.appendJSON([]byte("reused buffer")[:0])
			if err != nil {
				t.Fatalf("%s (text): %v", name, err)
			}
			if want := oracleJSON(t, &q); !bytes.Equal(got, want) {
				t.Errorf("%s (text):\n got %s\nwant %s", name, got, want)
			}
		}
		s := SQLResponse{QueryResponse: q}
		got, err = s.appendJSON(nil)
		if err != nil {
			t.Fatalf("%s (sql): %v", name, err)
		}
		if want := oracleJSON(t, &s); !bytes.Equal(got, want) {
			t.Errorf("%s (sql):\n got %s\nwant %s", name, got, want)
		}
	}
	explain := SQLResponse{
		QueryResponse: QueryResponse{Tenant: "acme", Shards: 2, NextOffset: -1},
		Plan:          "join <hash>\n\tscan \"sbp_data\" & filter\u2028",
		PlanJSON:      json.RawMessage("{ \"op\" : \"join\",\n \"note\": \"a<b & c>d\u2029\", \"rows\": [1, 2.50, 1e3] }"),
	}
	got, err := explain.appendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := oracleJSON(t, &explain); !bytes.Equal(got, want) {
		t.Errorf("explain:\n got %s\nwant %s", got, want)
	}
}

// TestUnencodableResponseIsAnError: whatever cannot be encoded is an
// error status with the JSON envelope, decided before the status line.
func TestUnencodableResponseIsAnError(t *testing.T) {
	for name, tc := range map[string]struct {
		encode func([]byte) ([]byte, error)
		code   int
		want   string
	}{
		"sample": {(&QueryResponse{Offset: 40, Samples: []float64{1, 2, math.Inf(1)}}).appendJSON,
			422, "the sample of iteration 42 is +Inf"},
		"summary": {(&QueryResponse{Summary: Summary{Variance: math.NaN()}}).appendJSON,
			422, "the summary's variance is NaN"},
		"plan": {(&SQLResponse{PlanJSON: json.RawMessage(`{"op":`)}).appendJSON,
			500, "plan_json"},
	} {
		rec := httptest.NewRecorder()
		writeJSON(rec, tc.encode)
		var env struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("%s: body %q: %v", name, rec.Body, err)
		}
		if rec.Code != tc.code || !strings.Contains(env.Error, tc.want) {
			t.Errorf("%s: status %d %q, want %d naming %q", name, rec.Code, env.Error, tc.code, tc.want)
		}
	}
	// The envelope itself is encoding/json's, escaping included.
	rec := httptest.NewRecorder()
	writeError(rec, badRequestf("unknown column %q <&>\u2028", "a\\b"))
	want := oracleJSON(t, struct {
		Error string `json:"error"`
	}{"unknown column \"a\\\\b\" <&>\u2028"})
	if rec.Code != 400 || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("error envelope: status %d body %s, want 400 %s", rec.Code, rec.Body, want)
	}
}

// FuzzSampleTextMatchesEncodingJSON: every finite float64 is spelled as
// encoding/json spells it, and the non-finite ones both refuse.
func FuzzSampleTextMatchesEncodingJSON(f *testing.F) {
	for _, v := range sampleTable {
		f.Add(math.Float64bits(v))
	}
	f.Add(math.Float64bits(math.Inf(-1)))
	f.Add(math.Float64bits(math.NaN()))
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		got, ok := appendFloat(nil, v)
		want, err := json.Marshal(v)
		if ok != (err == nil) {
			t.Fatalf("%v (%#x): appendFloat ok=%v, encoding/json err=%v", v, bits, ok, err)
		}
		if ok && !bytes.Equal(got, want) {
			t.Fatalf("%v (%#x): %s, encoding/json writes %s", v, bits, got, want)
		}
	})
}
