package scenario

import (
	"math"
	"sort"
	"time"

	"darshanldms/internal/rng"
)

// Arrival generation. All three processes are pure functions of (stream,
// spec, horizon): the same seed always yields the same arrival times, so a
// scenario is a replayable campaign, not a load test.

// Arrivals expands the arrival spec into sorted job start times within
// [0, horizon), capped at the spec's max_jobs (DefaultMaxJobs when unset).
// The spec must have passed Validate.
func Arrivals(r *rng.Stream, a ArrivalSpec, horizon time.Duration) []time.Duration {
	var times []time.Duration
	switch a.Kind {
	case ArrivalPoisson:
		times = poisson(r.Derive("poisson"), a.RatePerS, horizon)
	case ArrivalDiurnal:
		times = diurnal(r.Derive("diurnal"), a, horizon)
	case ArrivalBursty:
		if a.RatePerS > 0 {
			times = poisson(r.Derive("background"), a.RatePerS, horizon)
		}
		times = append(times, bursts(r.Derive("bursts"), a, horizon)...)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	maxJobs := a.MaxJobs
	if maxJobs == 0 {
		maxJobs = DefaultMaxJobs
	}
	if len(times) > maxJobs {
		times = times[:maxJobs]
	}
	return times
}

// poisson draws a homogeneous Poisson process: exponential inter-arrival
// gaps with mean 1/rate.
func poisson(r *rng.Stream, rate float64, horizon time.Duration) []time.Duration {
	var times []time.Duration
	t := 0.0
	limit := horizon.Seconds()
	for {
		t += r.Exponential(1 / rate)
		if t >= limit || len(times) >= MaxJobsCap {
			return times
		}
		times = append(times, time.Duration(t*float64(time.Second)))
	}
}

// diurnal draws a non-homogeneous Poisson process by thinning: candidates
// arrive at the envelope rate lambdaMax and survive with probability
// lambda(t)/lambdaMax, where lambda is the multi-period modulated rate.
func diurnal(r *rng.Stream, a ArrivalSpec, horizon time.Duration) []time.Duration {
	lambdaMax := a.peakRate()
	lambda := func(t float64) float64 {
		v := 1.0
		for _, p := range a.Periods {
			v += p.Amplitude * math.Sin(2*math.Pi*t/p.PeriodS)
		}
		if v < 0 {
			v = 0
		}
		return a.RatePerS * v
	}
	var times []time.Duration
	t := 0.0
	limit := horizon.Seconds()
	for {
		t += r.Exponential(1 / lambdaMax)
		if t >= limit || len(times) >= MaxJobsCap {
			return times
		}
		if r.Float64()*lambdaMax < lambda(t) {
			times = append(times, time.Duration(t*float64(time.Second)))
		}
	}
}

// peakRate is the envelope of a diurnal rate: no modulation exceeds
// rate × (1 + Σ|amplitude|).
func (a ArrivalSpec) peakRate() float64 {
	ampSum := 0.0
	for _, p := range a.Periods {
		ampSum += math.Abs(p.Amplitude)
	}
	return a.RatePerS * (1 + ampSum)
}

// bursts fires a flash crowd of burst_size arrivals at every, 2*every, ...
// each arrival jittered uniformly over [0, burst_jitter_s).
func bursts(r *rng.Stream, a ArrivalSpec, horizon time.Duration) []time.Duration {
	var times []time.Duration
	limit := horizon.Seconds()
	for bt := a.BurstEveryS; bt < limit; bt += a.BurstEveryS {
		for i := 0; i < a.BurstSize; i++ {
			t := bt
			if a.BurstJitterS > 0 {
				t += r.Float64() * a.BurstJitterS
			}
			if t < limit {
				times = append(times, time.Duration(t*float64(time.Second)))
			}
			if len(times) >= MaxJobsCap {
				return times
			}
		}
	}
	return times
}
