package core

import "gptunecrowd/internal/gp"

// gpProposer is the session tests' proposer: robust ingestion, random
// draws until two samples succeed, then an exact GP searched with EI —
// the NoTLA row of surrogate.NewProposer, which this package cannot
// import, written against the GP directly.
type gpProposer struct{ name string }

func newTestProposer() *gpProposer { return &gpProposer{name: "gp-test"} }

func (p *gpProposer) Name() string { return p.name }

func (p *gpProposer) Propose(ctx *ProposeContext) ([]float64, error) {
	if err := ctx.Cancelled(); err != nil {
		return nil, err
	}
	X, Y, info := ctx.History.RobustXY()
	ctx.NoteRobustIngestion(info)
	if info.OK < 2 {
		return ctx.RandomFeasible(), nil
	}
	model, err := gp.Fit(X, Y, gp.Options{Categorical: ctx.Problem.CategoricalMask(), Seed: ctx.Rng.Int63()})
	if err != nil {
		return ctx.DegradeToSpaceFill(p.name, err), nil
	}
	return SearchNext(model, ctx.Problem.ParamSpace, EI{}, ctx.History, ctx.Rng, ctx.Search), nil
}
