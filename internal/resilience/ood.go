package resilience

// Out-of-distribution serving guard. Learned TE has a documented quality
// cliff on inputs far from its training distribution (TEAL, arXiv
// 2210.13763), and the model's differentiability makes that cliff
// reachable on purpose: gradient ascent through the network yields
// traffic matrices that maximize MLU against the current weights
// (verify.AdversarialTM builds exactly those). The guard classifies every
// request from cheap input statistics — demand scale and skew against a
// trained-profile envelope, topology fingerprint against the known
// clusters — and the serving chain isolates what it flags: suspect
// requests still run the model at full depth (fewer RAU iterations measured
// worse on every suspect class, the unseen-topology transfer case included:
// EXPERIMENTS.md) but bypass the split cache in both directions, are always
// traced and are offered to the quality monitor; hostile requests skip the
// model as well and get ECMP, so an attacker can neither be served stale
// shared state nor plant entries that later in-profile requests would
// replay (cache poisoning).
//
// The guard fails open by design: with no profile installed every
// request is in-profile, and classification never rejects — worst case a
// request is served ECMP, the same terminal tier every other guard
// degrades to. Disabled (Options.OOD == nil) it costs one nil pointer
// check on the serve path: zero allocations, zero atomics (pinned by
// TestOODDisabledServeZeroAllocs).

import (
	"fmt"
	"sync/atomic"

	"harpte/internal/te"
	"harpte/internal/tensor"
)

// OODVerdict classifies one request against the trained profile.
type OODVerdict int32

const (
	// OODInProfile means every input statistic is inside the envelope;
	// the request is served normally.
	OODInProfile OODVerdict = iota
	// OODSuspect means one statistic is moderately outside the envelope;
	// the request runs the model but skips the split cache.
	OODSuspect
	// OODHostile means a statistic is far outside the envelope or
	// several deviate at once — the signature of crafted input; the
	// request is served deterministic ECMP and never touches the cache.
	OODHostile

	numOODVerdicts
)

// String returns the constant operator-facing label (also the metric
// label and trace-annotation value; no allocation).
func (v OODVerdict) String() string {
	switch v {
	case OODInProfile:
		return "in-profile"
	case OODSuspect:
		return "suspect"
	case OODHostile:
		return "hostile"
	}
	return "unknown"
}

// OODProfile is the trained-input envelope: the demand scales, demand
// skews and topology fingerprints the model was trained (or warmed) on.
// Build one with Observe over trusted instances, then install it with
// OODGuard.SetProfile. A profile is immutable once installed — Observe
// must not race Classify; retrain into a fresh profile and re-install
// instead (SetProfile swaps atomically).
type OODProfile struct {
	// MinTotal and MaxTotal bound the aggregate demand volume seen in
	// training.
	MinTotal, MaxTotal float64
	// MaxPeakShare bounds the largest single flow's share of the total —
	// the skew statistic. Flash crowds and adversarial TMs concentrate
	// demand, driving this toward 1.
	MaxPeakShare float64
	// Topologies is the set of known topology fingerprints (the trained
	// clusters). Empty means "accept any topology".
	Topologies map[uint64]struct{}
	// SuspectSlack and HostileSlack are the multiplicative margins on the
	// scale and skew envelope: within SuspectSlack× of a bound is still
	// in-profile, within HostileSlack× is suspect, beyond is hostile.
	// Zero values default to 1.5 and 4.
	SuspectSlack, HostileSlack float64

	seen bool
}

// NewOODProfile returns an empty profile with default slacks.
func NewOODProfile() *OODProfile {
	return &OODProfile{SuspectSlack: 1.5, HostileSlack: 4, Topologies: make(map[uint64]struct{})}
}

// Observe widens the envelope to cover one trusted instance. Call it
// over the training set (or a warmup of known-good production traffic)
// before installing the profile; it is not safe to call concurrently
// with Classify.
func (pr *OODProfile) Observe(p *te.Problem, demand *tensor.Dense) {
	total, peak := demandStats(demand)
	if !pr.seen || total < pr.MinTotal {
		pr.MinTotal = total
	}
	if total > pr.MaxTotal {
		pr.MaxTotal = total
	}
	if total > 0 {
		if share := peak / total; share > pr.MaxPeakShare {
			pr.MaxPeakShare = share
		}
	}
	if pr.Topologies == nil {
		pr.Topologies = make(map[uint64]struct{})
	}
	pr.Topologies[p.Fingerprint()] = struct{}{}
	pr.seen = true
}

// demandStats returns the aggregate volume and the largest single entry.
// Allocation-free.
func demandStats(demand *tensor.Dense) (total, peak float64) {
	for _, v := range demand.Data {
		total += v
		if v > peak {
			peak = v
		}
	}
	return total, peak
}

// severity grades how far x sits above bound: 0 within slack, 1 within
// the hostile slack, 2 beyond.
func (pr *OODProfile) severity(x, bound float64) int {
	suspect, hostile := pr.SuspectSlack, pr.HostileSlack
	if suspect <= 0 {
		suspect = 1.5
	}
	if hostile <= 0 {
		hostile = 4
	}
	switch {
	case bound <= 0 || x <= bound*suspect:
		return 0
	case x <= bound*hostile:
		return 1
	default:
		return 2
	}
}

// Classify grades one request against the envelope. An untrained profile
// (no Observe calls and zero bounds) accepts everything. Allocation-free.
func (pr *OODProfile) Classify(p *te.Problem, demand *tensor.Dense) OODVerdict {
	if pr == nil || !pr.seen {
		return OODInProfile
	}
	total, peak := demandStats(demand)

	// Scale: too large is graded multiplicatively above MaxTotal; too
	// small likewise below MinTotal (an all-but-zero TM is as far from
	// the trained regime as a flood).
	sev := pr.severity(total, pr.MaxTotal)
	if pr.MinTotal > 0 {
		if total <= 0 {
			// A zero TM is infinitely far below the trained minimum.
			sev = 2
		} else if s := pr.severity(pr.MinTotal, total); s > sev {
			sev = s
		}
	}

	// Skew: the largest flow's share of the total.
	if total > 0 {
		if s := pr.severity(peak/total, pr.MaxPeakShare); s > sev {
			sev = s
		}
	}

	// Topology: an unknown fingerprint is suspect on its own (the model
	// claims transfer, but transfer quality is exactly what the quality
	// monitor's oracle sampling is there to watch), and it escalates any
	// demand deviation: crafted traffic on an unseen topology is the
	// adversarial signature.
	deviations := 0
	if sev > 0 {
		deviations++
	}
	if len(pr.Topologies) > 0 {
		if _, ok := pr.Topologies[p.Fingerprint()]; !ok {
			if sev < 1 {
				sev = 1
			}
			deviations++
		}
	}
	if deviations >= 2 {
		sev = 2
	}

	switch {
	case sev >= 2:
		return OODHostile
	case sev == 1:
		return OODSuspect
	default:
		return OODInProfile
	}
}

// OODGuard is the serve-path classifier: an atomically swappable profile.
// Install one via Options.OOD; share one across servers that serve the
// same trained model. Each server tallies its own verdicts and what it did
// with them (Server.Stats().OOD, the harp_ood_* metrics).
type OODGuard struct {
	profile atomic.Pointer[OODProfile]
}

// NewOODGuard returns a guard with no profile: everything classifies
// in-profile until SetProfile installs an envelope.
func NewOODGuard() *OODGuard {
	return &OODGuard{}
}

// SetProfile atomically installs (or, with nil, removes) the envelope.
// The profile must not be mutated after installation.
func (g *OODGuard) SetProfile(pr *OODProfile) { g.profile.Store(pr) }

// Profile returns the installed envelope (nil when none).
func (g *OODGuard) Profile() *OODProfile { return g.profile.Load() }

// Classify grades one request against the installed envelope.
func (g *OODGuard) Classify(p *te.Problem, demand *tensor.Dense) OODVerdict {
	return g.profile.Load().Classify(p, demand)
}

// OODStats is a point-in-time snapshot of one server's OOD verdicts — the
// plain-Go mirror of its harp_ood_requests_total series. Every hostile
// request is denied the model and, with the split cache on, every suspect
// and hostile one skips it, so those outcomes need no tally of their own.
type OODStats struct {
	InProfile, Suspect, Hostile int64
}

// ObserveSeries widens the envelope over a demand series on one problem —
// the common "profile the training traffic" case. Inputs are validated;
// the first invalid one aborts with the profile unchanged from that point.
func (pr *OODProfile) ObserveSeries(p *te.Problem, demands []*tensor.Dense) error {
	for i, d := range demands {
		if err := ValidateInput(p, d); err != nil {
			return fmt.Errorf("resilience: ood profile instance %d: %w", i, err)
		}
		pr.Observe(p, d)
	}
	return nil
}
