package gp

// Clone returns an independent copy of the fitted model: the clone can
// absorb Observe updates (e.g. constant-liar pseudo-observations while
// generating a batch of suggestions) without disturbing the original,
// which may be serving concurrent Predict calls the whole time.
//
// The kernel and hyperparameters are shared — Observe never mutates
// them — and the training rows are shared with pinned capacity, so an
// append on either model copies instead of aliasing. The Cholesky
// factor and alpha are deep-copied: incremental updates replace them in
// place.
func (g *GP) Clone() *GP {
	c := &GP{
		kern:     g.kern,
		hyper:    g.hyper,
		lnoise:   g.lnoise,
		x:        g.x[:len(g.x):len(g.x)],
		ys:       g.ys[:len(g.ys):len(g.ys)],
		alpha:    append([]float64(nil), g.alpha...),
		meanY:    g.meanY,
		stdY:     g.stdY,
		nll:      g.nll,
		observed: g.observed,
	}
	if g.chol != nil {
		c.chol = g.chol.Clone()
	}
	return c
}
