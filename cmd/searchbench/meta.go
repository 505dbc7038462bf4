package main

import (
	"fmt"
	"os"

	"schedsearch"
	"schedsearch/internal/core"
	"schedsearch/internal/sim"
)

// Meta-scheduling benchmark: replay the full deterministic suite once
// per fixed policy and once with the portfolio meta-scheduler over the
// same policies, and compare total weighted cost — the uniform
// scalarization w·(total wait seconds) + (total bounded slowdown) with
// w = core.DefaultExcessWeight, i.e. the plan-scorer objective realized
// ex post over the committed schedules. The report also accounts the
// portfolio's shadow-simulation overhead, so the cost of adaptivity is
// visible next to its benefit.
//
// The default portfolio holds the two search policies. Backfill arms
// are parseable portfolio members, but the plan scorer's greedy
// completion systematically flatters backfill-style plans (their
// committed starts ARE a greedy placement), so portfolios mixing
// backfill with search arms commit the backfill arm on myopically-
// plausible rounds and lose realized cost — measurable by passing
// -metaspecs "DDS/lxf/dynB,LDS/fcfs/dynB,FCFS-backfill".

// metaPolicyRow is one policy's ten-month aggregate.
type metaPolicyRow struct {
	Policy string `json:"policy"`
	// WeightedCost sums w·waitSeconds + boundedSlowdown over every
	// measured job of every month (lower is better).
	WeightedCost float64 `json:"weighted_cost"`
	TotalWaitH   float64 `json:"total_wait_h"`
	TotalBsld    float64 `json:"total_bounded_slowdown"`
	Jobs         int     `json:"jobs"`
}

// metaBenchResult is the report's "meta" section.
type metaBenchResult struct {
	Months      []string `json:"months"`
	NodeLimit   int      `json:"node_limit"`
	ShadowLimit int      `json:"shadow_limit"`

	Fixed     []metaPolicyRow `json:"fixed"`
	Portfolio metaPolicyRow   `json:"portfolio"`
	// BestFixed names the strongest fixed policy; the ratio is
	// portfolio cost over best fixed cost (≤ 1 means the portfolio
	// matched or beat every fixed policy).
	BestFixed            string  `json:"best_fixed"`
	PortfolioVsBestFixed float64 `json:"portfolio_vs_best_fixed"`

	// Shadow overhead and bandit activity, summed over the months.
	Decisions         int     `json:"decisions"`
	Switches          int     `json:"switches"`
	CumRegret         float64 `json:"cum_regret"`
	ShadowNodes       int64   `json:"shadow_nodes"`
	ShadowWallMs      float64 `json:"shadow_wall_ms"`
	IncumbentWallMs   float64 `json:"incumbent_wall_ms"`
	ShadowOverheadPct float64 `json:"shadow_overhead_pct"`
}

// addMonth folds one month's summary into the row.
func (r *metaPolicyRow) addMonth(sum schedsearch.Summary) {
	waitS := sum.AvgWaitH * 3600 * float64(sum.Jobs)
	bsld := sum.AvgBoundedSlowdown * float64(sum.Jobs)
	r.WeightedCost += core.DefaultExcessWeight*waitS + bsld
	r.TotalWaitH += sum.AvgWaitH * float64(sum.Jobs)
	r.TotalBsld += bsld
	r.Jobs += sum.Jobs
}

// runMetaBench measures every fixed spec and the portfolio over the
// months and returns the report section.
func runMetaBench(specs []string, months []string, limit int) metaBenchResult {
	suite := schedsearch.NewSuite(schedsearch.SuiteConfig{Seed: 6, JobScale: 0.05})
	opts := schedsearch.SimOptions{TargetLoad: 0.95}
	cfg := schedsearch.MetaConfig{}
	res := metaBenchResult{
		Months:      months,
		NodeLimit:   limit,
		ShadowLimit: cfg.EffectiveShadowLimit(),
	}

	run := func(mkPolicy func() (sim.Policy, error), row *metaPolicyRow, collect func(sim.Policy)) {
		for _, month := range months {
			pol, err := mkPolicy()
			if err != nil {
				fatal(err)
			}
			sum, _, err := schedsearch.RunMonth(suite, month, opts, pol)
			if err != nil {
				fatal(fmt.Errorf("%s %s: %w", pol.Name(), month, err))
			}
			row.addMonth(sum)
			if collect != nil {
				collect(pol)
			}
		}
	}

	for _, spec := range specs {
		spec := spec
		row := metaPolicyRow{Policy: spec}
		run(func() (sim.Policy, error) { return schedsearch.ParsePolicy(spec, limit) }, &row, nil)
		fmt.Fprintf(os.Stderr, "meta fixed %-22s weighted cost %.3g (%d jobs)\n",
			spec, row.WeightedCost, row.Jobs)
		res.Fixed = append(res.Fixed, row)
	}

	portfolioSpec := "meta("
	for i, s := range specs {
		if i > 0 {
			portfolioSpec += ","
		}
		portfolioSpec += s
	}
	portfolioSpec += ")"
	res.Portfolio.Policy = portfolioSpec
	run(func() (sim.Policy, error) {
		return schedsearch.ParsePolicyMeta(portfolioSpec, limit, cfg)
	}, &res.Portfolio, func(pol sim.Policy) {
		st := pol.(*schedsearch.MetaScheduler).MetaStats()
		res.Decisions += st.Decisions
		res.Switches += st.Switches
		res.CumRegret += st.CumRegret
		res.ShadowNodes += st.ShadowNodes
		res.ShadowWallMs += float64(st.ShadowWallNs) / 1e6
		res.IncumbentWallMs += float64(st.IncumbentWallNs) / 1e6
	})
	if res.IncumbentWallMs > 0 {
		res.ShadowOverheadPct = 100 * res.ShadowWallMs / res.IncumbentWallMs
	}

	best := res.Fixed[0]
	for _, row := range res.Fixed[1:] {
		if row.WeightedCost < best.WeightedCost {
			best = row
		}
	}
	res.BestFixed = best.Policy
	if best.WeightedCost > 0 {
		res.PortfolioVsBestFixed = res.Portfolio.WeightedCost / best.WeightedCost
	}
	fmt.Fprintf(os.Stderr, "meta portfolio %-13s weighted cost %.3g — %.3fx best fixed (%s); %d switches, shadow overhead %.0f%%\n",
		portfolioSpec, res.Portfolio.WeightedCost, res.PortfolioVsBestFixed,
		res.BestFixed, res.Switches, res.ShadowOverheadPct)
	return res
}
