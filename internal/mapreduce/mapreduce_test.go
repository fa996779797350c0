package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// wordCount is the canonical job used in several tests.
func wordCount(t *testing.T, cfg Config, docs []string) map[string]int {
	t.Helper()
	splits := make([]any, len(docs))
	for i, d := range docs {
		splits[i] = d
	}
	out, _, err := RunCtx(context.Background(), cfg, splits,
		func(split any, emit func(Pair)) error {
			for _, w := range strings.Fields(split.(string)) {
				emit(Pair{Key: w, Value: 1})
			}
			return nil
		},
		func(key string, values []any, emit func(Pair)) error {
			emit(Pair{Key: key, Value: len(values)})
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	res := make(map[string]int)
	for _, p := range out {
		res[p.Key] = p.Value.(int)
	}
	return res
}

func TestWordCount(t *testing.T) {
	docs := []string{"a b a", "b c", "a"}
	got := wordCount(t, Config{}, docs)
	want := map[string]int{"a": 3, "b": 2, "c": 1}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("count[%s] = %d, want %d", k, got[k], v)
		}
	}
}

func TestOutputSortedByKey(t *testing.T) {
	splits := []any{"z y x w v u"}
	out, _, err := RunCtx(context.Background(), Config{Reducers: 4}, splits,
		func(split any, emit func(Pair)) error {
			for _, w := range strings.Fields(split.(string)) {
				emit(Pair{Key: w, Value: 1})
			}
			return nil
		},
		func(key string, values []any, emit func(Pair)) error {
			emit(Pair{Key: key, Value: nil})
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(out); i++ {
		if out[i-1].Key > out[i].Key {
			t.Fatalf("output not sorted: %q > %q", out[i-1].Key, out[i].Key)
		}
	}
}

func TestDeterministicAcrossParallelism(t *testing.T) {
	docs := []string{"p q r p", "q r s", "s s s p"}
	for _, cfg := range []Config{{Mappers: 1, Reducers: 1}, {Mappers: 8, Reducers: 5}} {
		got := wordCount(t, cfg, docs)
		if got["s"] != 4 || got["p"] != 3 {
			t.Fatalf("cfg %+v: %v", cfg, got)
		}
	}
}

func TestValueOrderFollowsSplitOrder(t *testing.T) {
	// All pairs share one key; values must arrive in split order.
	splits := []any{0, 1, 2, 3, 4, 5, 6, 7}
	out, _, err := RunCtx(context.Background(), Config{Mappers: 8, Reducers: 2}, splits,
		func(split any, emit func(Pair)) error {
			emit(Pair{Key: "k", Value: split.(int)})
			return nil
		},
		func(key string, values []any, emit func(Pair)) error {
			for i, v := range values {
				if v.(int) != i {
					return fmt.Errorf("value %d at position %d", v, i)
				}
			}
			emit(Pair{Key: key, Value: len(values)})
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Value.(int) != 8 {
		t.Fatalf("out = %v", out)
	}
}

func TestStats(t *testing.T) {
	splits := []any{"a a", "b"}
	_, stats, err := RunCtx(context.Background(), Config{}, splits,
		func(split any, emit func(Pair)) error {
			for _, w := range strings.Fields(split.(string)) {
				emit(Pair{Key: w, Value: 3.14})
			}
			return nil
		},
		func(key string, values []any, emit func(Pair)) error {
			emit(Pair{Key: key, Value: len(values)})
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if stats.InputSplits != 2 || stats.MapOutput != 3 || stats.ReduceGroups != 2 || stats.Output != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	// 3 pairs, each 1-byte key + 8-byte float.
	if stats.ShuffleBytes != 27 {
		t.Fatalf("shuffle bytes = %d, want 27", stats.ShuffleBytes)
	}
	if stats.String() == "" {
		t.Fatal("empty stats string")
	}
}

func TestMapErrorPropagates(t *testing.T) {
	wantErr := errors.New("boom")
	_, _, err := RunCtx(context.Background(), Config{}, []any{1, 2},
		func(split any, emit func(Pair)) error {
			if split.(int) == 2 {
				return wantErr
			}
			return nil
		},
		func(key string, values []any, emit func(Pair)) error { return nil })
	if !errors.Is(err, wantErr) {
		t.Fatalf("got %v, want wrapped boom", err)
	}
}

func TestReduceErrorPropagates(t *testing.T) {
	wantErr := errors.New("reduce-boom")
	_, _, err := RunCtx(context.Background(), Config{}, []any{1},
		func(split any, emit func(Pair)) error {
			emit(Pair{Key: "k", Value: 1})
			return nil
		},
		func(key string, values []any, emit func(Pair)) error { return wantErr })
	if !errors.Is(err, wantErr) {
		t.Fatalf("got %v, want wrapped reduce-boom", err)
	}
}

func TestNoInput(t *testing.T) {
	_, _, err := RunCtx(context.Background(), Config{}, nil, nil, nil)
	if !errors.Is(err, ErrNoInput) {
		t.Fatalf("got %v, want ErrNoInput", err)
	}
}

func TestDefaultSizeOf(t *testing.T) {
	cases := map[int]any{
		8:  3.14,
		5:  "hello",
		24: []float64{1, 2, 3},
		2:  []byte{1, 2},
		16: struct{}{},
	}
	for want, v := range cases {
		if got := DefaultSizeOf(v); got != want {
			t.Errorf("DefaultSizeOf(%v) = %d, want %d", v, got, want)
		}
	}
}

// Property: word count totals equal total input words for arbitrary
// word multisets.
func TestWordCountTotalProperty(t *testing.T) {
	err := quick.Check(func(counts []uint8) bool {
		if len(counts) == 0 {
			return true
		}
		if len(counts) > 20 {
			counts = counts[:20]
		}
		var words []string
		total := 0
		for i, c := range counts {
			n := int(c % 7)
			for j := 0; j < n; j++ {
				words = append(words, fmt.Sprintf("w%d", i))
				total++
			}
		}
		if total == 0 {
			return true
		}
		// Split into 3 docs.
		docs := []string{"", "", ""}
		for i, w := range words {
			docs[i%3] += w + " "
		}
		got := wordCount(t, Config{Mappers: 4, Reducers: 3}, docs)
		sum := 0
		for _, v := range got {
			sum += v
		}
		return sum == total
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMapperPanicBecomesError(t *testing.T) {
	_, _, err := RunCtx(context.Background(), Config{}, []any{1, 2},
		func(split any, emit func(Pair)) error {
			if split.(int) == 2 {
				panic("mapper exploded")
			}
			emit(Pair{Key: "k", Value: 1})
			return nil
		},
		func(key string, values []any, emit func(Pair)) error { return nil })
	if !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("got %v, want ErrWorkerPanic", err)
	}
}

func TestReducerPanicBecomesError(t *testing.T) {
	_, _, err := RunCtx(context.Background(), Config{}, []any{1},
		func(split any, emit func(Pair)) error {
			emit(Pair{Key: "k", Value: 1})
			return nil
		},
		func(key string, values []any, emit func(Pair)) error {
			panic("reducer exploded")
		})
	if !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("got %v, want ErrWorkerPanic", err)
	}
}
