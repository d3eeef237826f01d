// Package sgd provides mini-batch SGD's learning-rate schedules: constant,
// and multi-step (the paper decays by 10x at the 80/120/160/200-epoch
// marks). The update rules themselves (plain SGD, momentum, Nesterov, Local
// Adam) live in internal/opt.
package sgd

import "fmt"

// Schedule maps an epoch index to a learning rate.
type Schedule interface {
	// LR returns the learning rate in effect at the given (0-based) epoch.
	LR(epoch int) float64
	String() string
}

// Const is a fixed learning rate.
type Const struct{ Eta float64 }

// LR implements Schedule.
func (c Const) LR(int) float64 { return c.Eta }

func (c Const) String() string { return fmt.Sprintf("const(%g)", c.Eta) }

// MultiStep decays the base rate by decayFactor at each listed epoch
// milestone — the paper's "decay by 10 after 80/120/160/200 epochs"
// schedule.
type MultiStep struct {
	Eta        float64
	Milestones []int
}

// decayFactor is what MultiStep multiplies the rate by at each milestone:
// the paper's 10x decay.
const decayFactor = 0.1

// LR implements Schedule.
func (m MultiStep) LR(epoch int) float64 {
	lr := m.Eta
	for _, ms := range m.Milestones {
		if epoch >= ms {
			lr *= decayFactor
		}
	}
	return lr
}

func (m MultiStep) String() string {
	return fmt.Sprintf("multistep(%g x%g at %v)", m.Eta, decayFactor, m.Milestones)
}
