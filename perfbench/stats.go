package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the "inclusive" method). xs is not modified. An empty
// sample yields NaN so a missing measurement can never pass for a zero.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// hdQuantile is the Harrell–Davis estimate of the q-quantile: every order
// statistic weighted by a Beta((n+1)q, (n+1)(1-q)) distribution instead
// of the one or two nearest ranks. Samples that come in clusters, such as
// session legs grouped by shape and depth, then no longer make the
// estimate jump from one cluster to the next when noise reorders a few
// values around the rank.
func hdQuantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	est, prev := 0.0, 0.0
	for i := 1; i <= n; i++ {
		cur := betaInc(a, b, float64(i)/float64(n))
		est += (cur - prev) * s[i-1]
		prev = cur
	}
	return est
}

// betaInc is the regularized incomplete beta function I_x(a, b), by the
// continued fraction of Numerical Recipes §6.4.
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func betaCF(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 300; m++ {
		num := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		num = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-12 {
			break
		}
	}
	return h
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// tally counts the operations a run attempted and the ones whose output
// check failed (or that errored). Every miss is kept with its reason so a
// failing run says what went wrong.
type tally struct {
	attempted int
	failed    int
	reasons   []string
}

// check records one operation: err == nil is a pass.
func (t *tally) check(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.reasons) < 20 {
			t.reasons = append(t.reasons, err.Error())
		}
	}
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects named metrics in insertion order.
type metricSet struct {
	order  []string
	values map[string]metric
}

func newMetricSet() *metricSet { return &metricSet{values: map[string]metric{}} }

func (m *metricSet) set(name string, value float64, unit string) {
	if _, ok := m.values[name]; !ok {
		m.order = append(m.order, name)
	}
	m.values[name] = metric{Value: value, Unit: unit}
}

// missing reports the names in want that were never set or are not
// finite numbers.
func (m *metricSet) missing(want []string) []string {
	var out []string
	for _, n := range want {
		v, ok := m.values[n]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			out = append(out, n)
		}
	}
	return out
}

func (m *metricSet) String() string {
	s := ""
	for _, n := range m.order {
		v := m.values[n]
		s += fmt.Sprintf("%-36s %14.6g %s\n", n, v.Value, v.Unit)
	}
	return s
}

// slotted holds latencies in ms that fall into slots which every run
// samples alike: the shape, or the shape and depth, of a session leg,
// and the family of a served no_cache spec. It keeps them as measured
// and, once settled, with the stolen share of their step taken out.
type slotted struct {
	slot    []int
	ms, ran []float64
}

func (s *slotted) add(slot int, ms float64) {
	s.slot = append(s.slot, slot)
	s.ms = append(s.ms, ms)
}

func (s *slotted) settle(keep float64) {
	for _, x := range s.ms[len(s.ran):] {
		s.ran = append(s.ran, x*keep)
	}
}

// quantile is the Harrell–Davis q-quantile over the slots of each
// slot's median. The latencies cluster by slot, and a plain quantile
// of the pooled sample jumps from one cluster to the next when noise
// or the draw shifts a few samples across it; over slot medians, a
// slot's noise moves the quantile only through that slot's median.
func (s *slotted) quantile(q float64, ran bool) float64 {
	xs := s.ms
	if ran {
		xs = s.ran
	}
	bySlot := map[int][]float64{}
	for i, x := range xs {
		bySlot[s.slot[i]] = append(bySlot[s.slot[i]], x)
	}
	var meds []float64
	for _, v := range bySlot {
		meds = append(meds, median(v))
	}
	return hdQuantile(meds, q)
}
