package main

import "testing"

func TestQuantileInterpolatesRawSamples(t *testing.T) {
	cases := []struct {
		samples []float64
		q, want float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.5, 7},
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4, 5}, 0, 1},
		{[]float64{1, 2, 3, 4, 5}, 1, 5},
		{[]float64{10, 20, 30, 40, 50}, 0.9, 46},
	}
	for _, c := range cases {
		if got := quantile(c.samples, c.q); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.samples, c.q, got, c.want)
		}
	}
}

func TestQuantileLeavesInputUnsorted(t *testing.T) {
	s := []float64{3, 1, 2}
	quantile(s, 0.5)
	if s[0] != 3 || s[1] != 1 || s[2] != 2 {
		t.Fatalf("quantile reordered its input: %v", s)
	}
}

func TestBeyondCountsSamplesAboveThePercentile(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want int
	}{
		{0, 0.9, 0},
		{100, 0.9, 10},
		{100, 0.99, 1},
		{999, 0.99, 10},
		{998, 0.99, 10},
		{1000, 0.999, 1},
		{10000, 0.999, 10},
	}
	for _, c := range cases {
		if got := beyond(c.n, c.q); got != c.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
}

func ramp(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestTailNeedsTenSamplesBeyondIt(t *testing.T) {
	cases := []struct {
		n     int
		level float64
		ok    bool
	}{
		{50, 0, false},
		{91, 0, false},
		{92, 0.9, true},
		{901, 0.9, true},
		{902, 0.99, true},
		{9001, 0.99, true},
		{9002, 0.999, true},
	}
	for _, c := range cases {
		s := ramp(c.n)
		level, value, ok := tail(s)
		if ok != c.ok || level != c.level {
			t.Errorf("n=%d: tail level %v ok %v, want %v ok %v", c.n, level, ok, c.level, c.ok)
			continue
		}
		if ok {
			if got := beyond(c.n, level); got < minBeyond {
				t.Errorf("n=%d: only %d samples beyond p%v", c.n, got, 100*level)
			}
			if want := quantile(s, level); value != want {
				t.Errorf("n=%d: tail value %v, want %v", c.n, value, want)
			}
		}
	}
}
