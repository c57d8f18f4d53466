package sim

import (
	"fmt"
	"math/rand"
	"strings"
)

// StepKind enumerates fault-schedule operations.
type StepKind int

const (
	// StepSubmit submits one uniquely keyed strict update via a node.
	StepSubmit StepKind = iota + 1
	// StepPartition splits the network into the given components.
	StepPartition
	// StepHeal reconnects every component.
	StepHeal
	// StepCrash power-fails a node immediately: its unsynced log tail is
	// lost (the interesting case: green records applied since the last
	// "** sync to disk" barrier vanish, forcing a § 5.2 catch-up later).
	StepCrash
	// StepCrashAt arms a crash that fires exactly at the node's next
	// matching sync barrier — including while vulnerable, the window the
	// paper's recovery machinery exists for.
	StepCrashAt
	// StepRecover restarts a crashed node from its surviving log.
	StepRecover
	// StepSettle lets the cluster run undisturbed for Ms milliseconds.
	StepSettle
	// StepRetry re-submits an earlier submission's idempotency key —
	// possibly through a different node — racing the original through
	// partitions, crashes and view changes. The dedup invariant says the
	// key still applies at most once and every reply agrees.
	StepRetry
	// StepSubmitBurst fires Count uniquely keyed submissions back-to-back
	// through one node with no pacing between them, so they race into the
	// engine's batch collection window and travel as multi-action bundles
	// (core.Config.MaxBatchActions > 1). The invariants don't change: the
	// burst must expand into the same global order everywhere.
	StepSubmitBurst
)

// Step is one schedule entry. Nodes are ordinals into the cluster's
// server list; the runner skips steps that are inapplicable when they
// come up (crashing a dead node, recovering a live one), which keeps
// shrinking simple: any subsequence of a schedule is a valid schedule.
type Step struct {
	Kind   StepKind
	Node   int
	Groups [][]int // StepPartition: ordinals per component
	Point  string  // StepCrashAt: barrier name, "*" = any barrier
	Ms     int     // StepSettle: duration in milliseconds
	Sub    int     // StepRetry: ordinal of the submission to re-send
	Count  int     // StepSubmitBurst: submissions in the burst
}

// Schedule is a reproducible fault-injection scenario: everything about
// it derives from Seed, so a failure report needs only the seed (plus the
// step list, if it was shrunk).
type Schedule struct {
	Seed  int64
	Nodes int
	Steps []Step
	// Retry marks schedules produced by GenerateRetry, so failure reports
	// print the right replay command.
	Retry bool
	// Batch marks schedules produced by GenerateBatch (same purpose).
	Batch bool
	// Relaxed submits every write with commutative semantics (paper § 6)
	// instead of strict: outside a primary each write applies eagerly
	// while red and answers at once, and its idempotency key must still
	// apply exactly once across retries, crashes and replay.
	Relaxed bool
}

// crashPoints are the barrier names StepCrashAt can target (see the
// syncLog call sites in internal/core).
var crashPoints = []string{"*", "*", "install", "exchange-states", "construct", "nonprim"}

// Generate derives a random schedule from a seed. The mix leans on
// submissions (the invariants are only interesting when actions flow)
// interleaved with partitions, merges, crashes at and between barriers,
// and recoveries.
func Generate(seed int64) *Schedule {
	rng := rand.New(rand.NewSource(seed))
	s := &Schedule{Seed: seed, Nodes: 3 + rng.Intn(3)}
	steps := 12 + rng.Intn(16)
	up := make([]bool, s.Nodes)
	for i := range up {
		up[i] = true
	}
	downCount := 0
	for len(s.Steps) < steps {
		switch w := rng.Intn(100); {
		case w < 40:
			s.Steps = append(s.Steps, Step{Kind: StepSubmit, Node: rng.Intn(s.Nodes)})
		case w < 55:
			s.Steps = append(s.Steps, Step{Kind: StepPartition, Groups: randGroups(rng, s.Nodes)})
		case w < 65:
			s.Steps = append(s.Steps, Step{Kind: StepHeal})
		case w < 73:
			// Keep a majority of nodes alive in the schedule itself; the
			// runner additionally enforces the knowledge-preservation rule
			// at execution time.
			if n := rng.Intn(s.Nodes); up[n] && downCount+1 < (s.Nodes+2)/2 {
				kind := StepCrash
				point := ""
				if rng.Intn(2) == 0 {
					kind = StepCrashAt
					point = crashPoints[rng.Intn(len(crashPoints))]
				}
				s.Steps = append(s.Steps, Step{Kind: kind, Node: n, Point: point})
				up[n] = false
				downCount++
			}
		case w < 85:
			if n := rng.Intn(s.Nodes); !up[n] {
				s.Steps = append(s.Steps, Step{Kind: StepRecover, Node: n})
				up[n] = true
				downCount--
			}
		default:
			s.Steps = append(s.Steps, Step{Kind: StepSettle, Ms: 5 + rng.Intn(25)})
		}
	}
	return s
}

// GenerateRetry derives a random schedule biased toward client retries
// racing faults: every few submissions, an earlier idempotency key is
// re-sent through a (usually different) node while partitions, barrier
// crashes and recoveries churn underneath. Generate's rng consumption is
// left untouched so the vetted regression corpus keeps its meaning; this
// generator owns its own seed space.
func GenerateRetry(seed int64) *Schedule {
	rng := rand.New(rand.NewSource(seed))
	s := &Schedule{Seed: seed, Nodes: 3 + rng.Intn(3), Retry: true}
	steps := 14 + rng.Intn(16)
	up := make([]bool, s.Nodes)
	for i := range up {
		up[i] = true
	}
	downCount, nsub := 0, 0
	for len(s.Steps) < steps {
		switch w := rng.Intn(100); {
		case w < 30:
			s.Steps = append(s.Steps, Step{Kind: StepSubmit, Node: rng.Intn(s.Nodes)})
			nsub++
		case w < 50:
			if nsub == 0 {
				continue
			}
			s.Steps = append(s.Steps, Step{
				Kind: StepRetry,
				Node: rng.Intn(s.Nodes),
				Sub:  rng.Intn(nsub),
			})
		case w < 62:
			s.Steps = append(s.Steps, Step{Kind: StepPartition, Groups: randGroups(rng, s.Nodes)})
		case w < 70:
			s.Steps = append(s.Steps, Step{Kind: StepHeal})
		case w < 78:
			if n := rng.Intn(s.Nodes); up[n] && downCount+1 < (s.Nodes+2)/2 {
				kind := StepCrash
				point := ""
				if rng.Intn(2) == 0 {
					kind = StepCrashAt
					point = crashPoints[rng.Intn(len(crashPoints))]
				}
				s.Steps = append(s.Steps, Step{Kind: kind, Node: n, Point: point})
				up[n] = false
				downCount++
			}
		case w < 90:
			if n := rng.Intn(s.Nodes); !up[n] {
				s.Steps = append(s.Steps, Step{Kind: StepRecover, Node: n})
				up[n] = true
				downCount--
			}
		default:
			s.Steps = append(s.Steps, Step{Kind: StepSettle, Ms: 5 + rng.Intn(25)})
		}
	}
	return s
}

// GenerateBatch derives a random schedule biased toward submit storms:
// bursts of 8–32 back-to-back submissions race partitions, barrier
// crashes and recoveries, so multi-action bundles are in flight while
// the membership churns — batches split across transitional
// configurations, bundles retransmitted through exchanges, bursts
// buffered during state exchange. Retries of burst keys ride along to
// stress the in-batch dedup path. Own seed space (Generate and
// GenerateRetry keep their vetted corpora).
func GenerateBatch(seed int64) *Schedule {
	rng := rand.New(rand.NewSource(seed))
	s := &Schedule{Seed: seed, Nodes: 3 + rng.Intn(3), Batch: true}
	steps := 10 + rng.Intn(12)
	up := make([]bool, s.Nodes)
	for i := range up {
		up[i] = true
	}
	downCount, nsub := 0, 0
	for len(s.Steps) < steps {
		switch w := rng.Intn(100); {
		case w < 35:
			n := 8 + rng.Intn(25)
			s.Steps = append(s.Steps, Step{Kind: StepSubmitBurst, Node: rng.Intn(s.Nodes), Count: n})
			nsub += n
		case w < 45:
			if nsub == 0 {
				continue
			}
			s.Steps = append(s.Steps, Step{Kind: StepRetry, Node: rng.Intn(s.Nodes), Sub: rng.Intn(nsub)})
		case w < 60:
			s.Steps = append(s.Steps, Step{Kind: StepPartition, Groups: randGroups(rng, s.Nodes)})
		case w < 68:
			s.Steps = append(s.Steps, Step{Kind: StepHeal})
		case w < 78:
			if n := rng.Intn(s.Nodes); up[n] && downCount+1 < (s.Nodes+2)/2 {
				kind := StepCrash
				point := ""
				if rng.Intn(2) == 0 {
					kind = StepCrashAt
					point = crashPoints[rng.Intn(len(crashPoints))]
				}
				s.Steps = append(s.Steps, Step{Kind: kind, Node: n, Point: point})
				up[n] = false
				downCount++
			}
		case w < 90:
			if n := rng.Intn(s.Nodes); !up[n] {
				s.Steps = append(s.Steps, Step{Kind: StepRecover, Node: n})
				up[n] = true
				downCount--
			}
		default:
			s.Steps = append(s.Steps, Step{Kind: StepSettle, Ms: 5 + rng.Intn(25)})
		}
	}
	return s
}

// randGroups partitions ordinals 0..n-1 into 1–3 shuffled components.
func randGroups(rng *rand.Rand, n int) [][]int {
	order := rng.Perm(n)
	g := 1 + rng.Intn(3)
	if g > n {
		g = n
	}
	groups := make([][]int, g)
	for i, node := range order {
		groups[i%g] = append(groups[i%g], node)
	}
	return groups
}

func (st Step) String() string {
	switch st.Kind {
	case StepSubmit:
		return fmt.Sprintf("submit@%d", st.Node)
	case StepPartition:
		parts := make([]string, len(st.Groups))
		for i, grp := range st.Groups {
			nums := make([]string, len(grp))
			for j, n := range grp {
				nums[j] = fmt.Sprint(n)
			}
			parts[i] = "{" + strings.Join(nums, ",") + "}"
		}
		return "partition" + strings.Join(parts, "")
	case StepHeal:
		return "heal"
	case StepCrash:
		return fmt.Sprintf("crash@%d", st.Node)
	case StepCrashAt:
		return fmt.Sprintf("crash@%d:%s", st.Node, st.Point)
	case StepRecover:
		return fmt.Sprintf("recover@%d", st.Node)
	case StepSettle:
		return fmt.Sprintf("settle:%dms", st.Ms)
	case StepRetry:
		return fmt.Sprintf("retry#%d@%d", st.Sub, st.Node)
	case StepSubmitBurst:
		return fmt.Sprintf("burst:%d@%d", st.Count, st.Node)
	default:
		return fmt.Sprintf("step(%d)", int(st.Kind))
	}
}

func (s *Schedule) String() string {
	steps := make([]string, len(s.Steps))
	for i, st := range s.Steps {
		steps[i] = st.String()
	}
	return fmt.Sprintf("seed=%d nodes=%d [%s]", s.Seed, s.Nodes, strings.Join(steps, " "))
}
