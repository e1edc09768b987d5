package bench

import "dnc/internal/btb"

// btbShotgunConfig aliases the Shotgun BTB sizing type.
type btbShotgunConfig = btb.ShotgunConfig

// btbScale returns Shotgun's BTB scaled by num/den.
func btbScale(num, den int) btb.ShotgunConfig {
	return btb.ScaledShotgunConfig(num, den)
}

// scaleEntries scales a power-of-two entry count by num/den, keeping it a
// positive power of two.
func scaleEntries(entries, num, den int) int {
	v := entries * num / den
	p := 1
	for p < v {
		p <<= 1
	}
	if p < 64 {
		p = 64
	}
	return p
}

// experiments is every experiment in paper order, by ID.
var experiments = []struct {
	id  string
	run func(*Harness) Experiment
}{
	{"fig01", (*Harness).Fig01},
	{"table1", (*Harness).Table1},
	{"fig02", (*Harness).Fig02},
	{"fig03", (*Harness).Fig03},
	{"fig04", (*Harness).Fig04},
	{"fig05", (*Harness).Fig05},
	{"fig06", (*Harness).Fig06},
	{"fig07", (*Harness).Fig07},
	{"fig08", (*Harness).Fig08},
	{"fig09", (*Harness).Fig09},
	{"table2", (*Harness).Table2},
	{"fig11", (*Harness).Fig11},
	{"fig12", (*Harness).Fig12},
	{"fig13", (*Harness).Fig13},
	{"fig14", (*Harness).Fig14},
	{"fig15", (*Harness).Fig15},
	{"fig16", (*Harness).Fig16},
	{"fig17", (*Harness).Fig17},
	{"fig18", (*Harness).Fig18},
	{"secj", (*Harness).SecJ},
}

// All runs every experiment in paper order.
func (h *Harness) All() []Experiment {
	out := make([]Experiment, len(experiments))
	for i, e := range experiments {
		out[i] = e.run(h)
	}
	return out
}

// ByID returns the experiment with the given ID, running it on demand.
func (h *Harness) ByID(id string) (Experiment, bool) {
	for _, e := range experiments {
		if e.id == id {
			return e.run(h), true
		}
	}
	return Experiment{}, false
}

// IDs lists the experiment identifiers in paper order.
func IDs() []string {
	out := make([]string, len(experiments))
	for i, e := range experiments {
		out[i] = e.id
	}
	return out
}
