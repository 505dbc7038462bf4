package metasched

import "math"

// greedyBandit is the portfolio's arm-selection rule: discounted
// follow-the-leader over full-information losses, with switch
// hysteresis. Every decision, every arm's shadow plan is scored, so
// every arm's loss is observed every round and no exploration bonus is
// needed. pick returns the arm to commit this decision using only past
// observations; observe feeds the round's normalized losses (one per
// arm, in [0, 1]). Ties break on the lowest arm index, so selection is
// a pure function of the observation history. The hysteresis keeps the
// current pick unless the best arm's discounted mean loss undercuts it
// by the relative margin — plan scores are myopic one-step estimates,
// so a marginal advantage is noise and flickering between arms
// mid-trajectory costs more than it wins.
type greedyBandit struct {
	loss   []float64 // discounted loss sums
	count  []float64 // discounted observation counts
	gamma  float64
	margin float64
	minGap float64
	sticky int // current pick (-1 before the first)
}

func newGreedyBandit(arms int, cfg Config) *greedyBandit {
	return &greedyBandit{
		loss:   make([]float64, arms),
		count:  make([]float64, arms),
		gamma:  cfg.gamma(),
		margin: cfg.stickyMargin(),
		minGap: cfg.stickyGap(),
		sticky: -1,
	}
}

func (b *greedyBandit) pick() int {
	best, bestMean := 0, math.Inf(1)
	for i := range b.loss {
		mean := 0.0
		if b.count[i] > 0 {
			mean = b.loss[i] / b.count[i]
		}
		if mean < bestMean {
			best, bestMean = i, mean
		}
	}
	if b.sticky >= 0 && best != b.sticky {
		cur := 0.0
		if b.count[b.sticky] > 0 {
			cur = b.loss[b.sticky] / b.count[b.sticky]
		}
		// Relative margin plus an absolute floor: with regret-
		// proportional losses the discounted means hover near zero on
		// quiet stretches, where a purely relative test would still
		// flicker on noise.
		if cur-bestMean <= b.margin*cur+b.minGap {
			return b.sticky
		}
	}
	b.sticky = best
	return best
}

func (b *greedyBandit) observe(losses []float64) {
	for i, l := range losses {
		b.loss[i] = b.gamma*b.loss[i] + l
		b.count[i] = b.gamma*b.count[i] + 1
	}
}
