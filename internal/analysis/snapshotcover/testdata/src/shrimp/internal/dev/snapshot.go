package dev

// Snapshot captures Dev. caponly is referenced only inside the helper,
// which inherits the capture side by propagation.
func (d *Dev) Snapshot() DevState {
	d.quiesce()
	return DevState{both: d.both}
}

// quiesce runs on the capture side because Snapshot calls it.
func (d *Dev) quiesce() {
	_ = d.caponly
	_ = d.depth
}

// Restore rewinds Dev.
func (d *Dev) Restore(s DevState) {
	d.both = s.both
	d.resonly = 0
	d.depth = 0
}
