package server

// The one response encoder. Every /v1 body — query and SQL answers,
// EXPLAIN, the error envelope — is appended to a buffer by the code
// below and only then written, so a value JSON cannot carry becomes an
// error response instead of a 200 with nothing after the headers. The
// bytes are exactly what encoding/json's Encoder writes for the same
// value (TestEncoderMatchesEncodingJSON and
// FuzzSampleTextMatchesEncodingJSON keep encoding/json as the oracle):
// clients and the result cache may rely on a body being a pure function
// of the response.

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// maxSampleText bounds the JSON text of one sample plus its separator:
// "-1.7976931348623157e+308" is 24 bytes.
const maxSampleText = 25

// unrepresentable is the error for a number JSON has no spelling for.
// 422: the request was well-formed, its answer overflowed float64.
func unrepresentable(what string, v float64) error {
	return &StatusError{Code: 422, Msg: fmt.Sprintf("%s is %v, which JSON cannot represent", what, v)}
}

// appendFloat appends f the way encoding/json does: shortest
// round-trip digits, exponent form below 1e-6 and from 1e21 with the
// exponent's leading zero dropped. ok is false for NaN and ±Inf.
func appendFloat(b []byte, f float64) (_ []byte, ok bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	abs := math.Abs(f)
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) { // zero is the one value below 1e-6 that takes the 'f' form
		b = strconv.AppendFloat(b, f, 'e', -1, 64)
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
		return b, true
	}
	return strconv.AppendFloat(b, f, 'f', -1, 64), true
}

// appendSamples appends samples comma-separated. first is the iteration
// of samples[0], for the error. A non-nil ends receives, per sample,
// the offset just past its text.
func appendSamples(b []byte, samples []float64, first int, ends []uint32) ([]byte, error) {
	for i, v := range samples {
		if i > 0 {
			b = append(b, ',')
		}
		var ok bool
		if b, ok = appendFloat(b, v); !ok {
			return b, unrepresentable(fmt.Sprintf("the sample of iteration %d", first+i), v)
		}
		if ends != nil {
			ends[i] = uint32(len(b))
		}
	}
	return b, nil
}

// namedFloat is one float field of a Summary under its JSON name.
type namedFloat struct {
	name string
	v    float64
}

// floats lists the summary's float fields in wire order.
func (s *Summary) floats() [4]namedFloat {
	return [4]namedFloat{{"mean", s.Mean}, {"variance", s.Variance}, {"ci95", s.CI95}, {"median", s.Median}}
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string with encoding/json's default
// escaping: quote, backslash and control characters, the HTML-sensitive
// <, > and &, U+2028 and U+2029, and U+FFFD for invalid UTF-8.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(s[i:])
			switch {
			case r == utf8.RuneError && size == 1:
				b = append(append(b, s[start:i]...), `\ufffd`...)
			case r == '\u2028' || r == '\u2029':
				b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			default:
				i += size
				continue
			}
			i += size
			start = i
			continue
		}
		if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
			i++
			continue
		}
		b = append(b, s[start:i]...)
		switch c {
		case '\\', '"':
			b = append(b, '\\', c)
		case '\b':
			b = append(b, '\\', 'b')
		case '\f':
			b = append(b, '\\', 'f')
		case '\n':
			b = append(b, '\\', 'n')
		case '\r':
			b = append(b, '\\', 'r')
		case '\t':
			b = append(b, '\\', 't')
		default:
			b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
		}
		i++
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// appendJSON appends r as encoding/json's Encoder would, newline
// included. The samples array is r.sampleText when the result cache
// supplied it, and formatted from r.Samples otherwise.
func (r *QueryResponse) appendJSON(b []byte) ([]byte, error) {
	b, err := r.appendFields(b)
	return append(b, '}', '\n'), err
}

// appendJSON appends the embedded QueryResponse's fields followed by
// the plan fields an EXPLAIN sets.
func (r *SQLResponse) appendJSON(b []byte) ([]byte, error) {
	b, err := r.QueryResponse.appendFields(b)
	if err != nil {
		return b, err
	}
	if r.Plan != "" {
		b = appendString(append(b, `,"plan":`...), r.Plan)
	}
	if len(r.PlanJSON) > 0 {
		// RawMessage is JSON already; Marshal validates, compacts and
		// HTML-escapes it exactly as the Encoder did in place.
		plan, err := json.Marshal(r.PlanJSON)
		if err != nil {
			return b, fmt.Errorf("encoding plan_json: %w", err)
		}
		b = append(append(b, `,"plan_json":`...), plan...)
	}
	return append(b, '}', '\n'), nil
}

// appendFields appends the object's opening brace and every
// QueryResponse field, leaving the object open for the embedder.
func (r *QueryResponse) appendFields(b []byte) ([]byte, error) {
	b = appendString(append(b, `{"tenant":`...), r.Tenant)
	b = strconv.AppendUint(append(b, `,"effective_seed":`...), r.EffectiveSeed, 10)
	b = strconv.AppendInt(append(b, `,"iterations":`...), int64(r.Iterations), 10)
	b = strconv.AppendInt(append(b, `,"shards":`...), int64(r.Shards), 10)
	b = strconv.AppendBool(append(b, `,"cached":`...), r.Cached)
	b = strconv.AppendInt(append(b, `,"summary":{"n":`...), int64(r.Summary.N), 10)
	for _, f := range r.Summary.floats() {
		b = append(append(append(b, `,"`...), f.name...), `":`...)
		var ok bool
		if b, ok = appendFloat(b, f.v); !ok {
			return b, unrepresentable("the summary's "+f.name, f.v)
		}
	}
	b = strconv.AppendInt(append(b, `},"offset":`...), int64(r.Offset), 10)
	b = strconv.AppendInt(append(b, `,"next_offset":`...), int64(r.NextOffset), 10)
	b = append(b, `,"samples":`...)
	switch {
	case r.Samples == nil:
		b = append(b, "null"...)
	case r.sampleText != nil:
		b = append(append(append(b, '['), r.sampleText...), ']')
	default:
		var err error
		if b, err = appendSamples(append(b, '['), r.Samples, r.Offset, nil); err != nil {
			return b, err
		}
		b = append(b, ']')
	}
	if len(r.Lineage) > 0 {
		b = append(b, `,"lineage":[`...)
		for i, row := range r.Lineage {
			if i > 0 {
				b = append(b, ',')
			}
			if row == nil {
				b = append(b, "null"...)
				continue
			}
			b = append(b, '[')
			for j, t := range row {
				if j > 0 {
					b = append(b, ',')
				}
				b = strconv.AppendInt(b, int64(t), 10)
			}
			b = append(b, ']')
		}
		b = append(b, ']')
	}
	return b, nil
}
