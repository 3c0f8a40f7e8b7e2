package core

import (
	"repro/internal/energy"
	"repro/internal/exec"
	"repro/internal/opt"
	"repro/internal/sql"
)

// BudgetDecision reports how a budgeted query was planned.
type BudgetDecision struct {
	Budget     energy.Joules
	Chosen     opt.Objective // objective whose plan was executed
	Candidates []opt.Cost    // estimated cost per candidate objective
	Picked     int           // index into Candidates
}

// QueryUnderBudget is Figure 2 as an API: the engine plans the query
// under every objective, estimates each plan's energy, and executes the
// fastest plan whose estimate fits the per-query budget (falling back to
// the most frugal plan when none fits).  The decision is returned next to
// the result so callers can audit the trade.  The engine's own objective
// is never touched, so concurrent queries plan under what they asked for.
func (e *Engine) QueryUnderBudget(text string, budget energy.Joules) (*Result, *BudgetDecision, error) {
	q, err := sql.Parse(text)
	if err != nil {
		return nil, nil, err
	}
	return e.run(q, budget)
}

// budgetObjectives is the candidate order a budgeted offer plans under;
// PickUnderEnergyBudget indexes into it.
var budgetObjectives = []opt.Objective{opt.MinTime, opt.MinEDP, opt.MinEnergy}

// resolveObjective plans q under every candidate objective and picks
// the one whose estimate fits the energy budget — the single decision
// procedure behind every budgeted offer.  It returns the winning
// candidate's physical plan next to the decision, so no caller plans a
// fourth time.
func (e *Engine) resolveObjective(q *opt.Query, budget energy.Joules) (*BudgetDecision, exec.Node, *opt.PlanInfo, error) {
	dec := &BudgetDecision{Budget: budget}
	nodes := make([]exec.Node, 0, len(budgetObjectives))
	infos := make([]*opt.PlanInfo, 0, len(budgetObjectives))
	for _, obj := range budgetObjectives {
		node, info, err := e.cat.Plan(q, e.cm, obj)
		if err != nil {
			return nil, nil, nil, err
		}
		dec.Candidates = append(dec.Candidates, info.Est)
		nodes = append(nodes, node)
		infos = append(infos, info)
	}
	dec.Picked = opt.PickUnderEnergyBudget(dec.Candidates, budget)
	dec.Chosen = budgetObjectives[dec.Picked]
	return dec, nodes[dec.Picked], infos[dec.Picked], nil
}
