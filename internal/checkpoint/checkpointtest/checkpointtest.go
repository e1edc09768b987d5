// Package checkpointtest is the round trip the tests of stateful components
// share: frame one component's State walk into snapshot bytes, and load
// snapshot bytes back through a State walk.
package checkpointtest

import "dnc/internal/checkpoint"

// Save returns the framed snapshot of one component (pass its State method).
func Save(state func(*checkpoint.Codec)) []byte {
	e := checkpoint.NewEncoder()
	state(checkpoint.NewSaver(e))
	return e.Marshal()
}

// Load restores a framed snapshot through state and returns the first
// error, the framing's or the walk's.
func Load(data []byte, state func(*checkpoint.Codec)) error {
	d, err := checkpoint.Decode(data)
	if err != nil {
		return err
	}
	c := checkpoint.NewLoader(d)
	state(c)
	return c.Err()
}
