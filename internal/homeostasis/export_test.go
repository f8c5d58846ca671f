package homeostasis

import "repro/internal/rt"

// WinnerlessRound lets the external tests run one of a drain's absorb
// rounds on its own: site coordinates a round without a winner over the
// unit.
func (sys *System) WinnerlessRound(p rt.Proc, site, unit int) error {
	return sys.winnerlessRound(p, site, sys.Units[unit])
}
