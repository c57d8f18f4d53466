package sim

import "time"

// Shrink minimizes a failing schedule by delta debugging: it repeatedly
// tries dropping chunks of steps (halving chunk size down to single
// steps) and keeps any removal after which the schedule still fails.
// Because the runner skips inapplicable steps, every subsequence is a
// valid schedule, so no repair pass is needed. The budget bounds the
// number of re-runs (each re-run executes a real cluster); the best
// schedule found so far is returned when it runs out.
func Shrink(sched *Schedule, opts Options, budget int) *Schedule {
	fails := func(s *Schedule) bool {
		if budget <= 0 {
			return false
		}
		budget--
		return Run(s, opts).Failed()
	}
	cur := *sched
	cur.Steps = append([]Step(nil), sched.Steps...)
	chunk := len(cur.Steps) / 2
	if chunk < 1 {
		chunk = 1
	}
	for chunk >= 1 && budget > 0 {
		shrunk := false
		for start := 0; start < len(cur.Steps) && budget > 0; {
			cand := cur
			cand.Steps = append([]Step(nil), cur.Steps[:start]...)
			end := start + chunk
			if end > len(cur.Steps) {
				end = len(cur.Steps)
			}
			cand.Steps = append(cand.Steps, cur.Steps[end:]...)
			if len(cand.Steps) < len(cur.Steps) && fails(&cand) {
				cur = cand
				shrunk = true
				// Retry the same offset: the next chunk slid into place.
			} else {
				start += chunk
			}
		}
		if !shrunk {
			chunk /= 2
		}
	}
	return &cur
}

// ReplayStable re-runs a schedule n times and reports how many runs
// failed — a quick confidence measure for schedules whose failure depends
// on goroutine interleaving as well as the fault sequence.
func ReplayStable(sched *Schedule, opts Options, n int) (failures int) {
	for i := 0; i < n; i++ {
		if Run(sched, opts).Failed() {
			failures++
		}
		time.Sleep(time.Millisecond)
	}
	return failures
}
