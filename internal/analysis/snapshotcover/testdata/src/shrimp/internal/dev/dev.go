// Package dev exercises snapshot coverage classification: every field
// of a registered state struct must be referenced by the snapshot.go
// capture/restore pair or carry a //shrimp:nostate annotation.
package dev

// Dev is registered by being the receiver of the Snapshot/Restore pair
// in snapshot.go.
type Dev struct {
	both    int
	caponly int // want `field Dev\.caponly of snapshotted struct is captured but never restored in snapshot\.go`
	resonly int // want `field Dev\.resonly of snapshotted struct is restored but never captured in snapshot\.go`
	never   int // want `field Dev\.never of snapshotted struct is never referenced by snapshot\.go's capture/restore pair`

	wired int //shrimp:nostate wiring: identity fixed at construction, same across branches
	quiet int //shrimp:nostate asserted: Quiescent requires it zero before a snapshot

	badClass int //shrimp:nostate sticky: held over // want `class "sticky" is not one of captured, asserted, wiring`
	noColon  int //shrimp:nostate wiring // want `missing ". <why>" after the class`

	// Embedded fields follow the same rule as named ones.
	level  // referenced on both sides through the promoted d.depth
	*peer  //shrimp:nostate wiring: a shared neighbour, same across branches
	hidden // want `field Dev\.hidden of snapshotted struct is never referenced by snapshot\.go's capture/restore pair`
}

type level struct{ depth int }

type peer struct{ id int }

type hidden struct{ secret int }

// DevState is the snapshot copy, registered because both sides
// reference its field both: a composite key on the capture side, a read
// on the restore side.
type DevState struct {
	both int
	gone int // want `field DevState\.gone of snapshotted struct is never referenced by snapshot\.go's capture/restore pair`
}

// parser is transient state no side copies, so only its mark
// registers it.
//
//shrimp:state
type parser struct {
	buf []byte //shrimp:nostate asserted: Quiescent requires it empty
	pos int    // want `field parser\.pos of snapshotted struct is never referenced by snapshot\.go's capture/restore pair`
}

// orphan is not registered, so an annotation on it checks nothing.
type orphan struct {
	x int //shrimp:nostate wiring: fixed at construction // want `annotation on field orphan\.x, but orphan is not snapshotted state`
}

// bystander is not registered — no side-function receiver, no field
// both sides reference, no //shrimp:state mark — so its unreferenced
// fields are exempt.
type bystander struct {
	anything int
}
