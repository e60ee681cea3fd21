package checkpoint

import (
	"fmt"
	"reflect"

	"shrimp/internal/machine"
	"shrimp/internal/memory"
	"shrimp/internal/mesh"
	"shrimp/internal/ring"
	"shrimp/internal/sim"
	"shrimp/internal/svm"
	"shrimp/internal/vmmc"
)

// Coverage tables: every field of every struct that participates in
// checkpointing is classified here, and the completeness test fails
// the build the moment a field is added to one of these structs
// without a conscious decision about how checkpointing handles it.
//
// Classes:
//   - captured: copied by a Snapshot() and written back by Restore().
//   - asserted: must be empty/idle at quiescence; Quiescent() checks it
//     (or it is transient engine state that quiescence implies is dead).
//   - wiring: identical across branches by construction — pointers,
//     closures, freelists, immutable config — never touched by rewind.
type Class string

const (
	Captured Class = "captured"
	Asserted Class = "asserted"
	Wiring   Class = "wiring"
)

// Classes enumerates the classification vocabulary. The shrimpvet
// snapshotcover analyzer's //shrimp:nostate annotations use these
// same tokens, so the static mirror and this runtime inventory cannot
// drift apart on what a class means (TestStaticCoverageMatches pins
// the per-field agreement).
func Classes() []Class { return []Class{Captured, Asserted, Wiring} }

// ParseClass maps an annotation token to its Class.
func ParseClass(s string) (Class, bool) {
	switch c := Class(s); c {
	case Captured, Asserted, Wiring:
		return c, true
	}
	return "", false
}

// TypeCoverage classifies every field of one struct type.
type TypeCoverage struct {
	Type   reflect.Type
	Fields map[string]Class
}

// fieldType resolves the type of a named field, unwrapping pointers,
// slices, arrays, and map values until it reaches a struct. It lets
// the tables reach unexported types (lockState, barrierState, link...)
// by navigation from an exported root.
func fieldType(t reflect.Type, name string) reflect.Type {
	for t.Kind() == reflect.Ptr {
		t = t.Elem()
	}
	f, ok := t.FieldByName(name)
	if !ok {
		panic(fmt.Sprintf("checkpoint: type %v has no field %q", t, name))
	}
	ft := f.Type
	for ft.Kind() == reflect.Ptr || ft.Kind() == reflect.Slice ||
		ft.Kind() == reflect.Array || ft.Kind() == reflect.Map {
		ft = ft.Elem()
	}
	return ft
}

// Covered enumerates the coverage tables for every snapshotted struct.
func Covered() []TypeCoverage {
	engineT := reflect.TypeOf(sim.Engine{})
	networkT := reflect.TypeOf(mesh.Network{})
	addrSpaceT := reflect.TypeOf(memory.AddressSpace{})
	nicT := fieldType(reflect.TypeOf(machine.Node{}), "NIC")
	machineT := reflect.TypeOf(machine.Machine{})
	nodeT := reflect.TypeOf(machine.Node{})
	cpuT := reflect.TypeOf(machine.CPU{})
	epT := reflect.TypeOf(vmmc.Endpoint{})
	exportT := reflect.TypeOf(vmmc.Export{})
	svmSysT := reflect.TypeOf(svm.System{})
	svmRtT := fieldType(svmSysT, "nodes")
	ringT := reflect.TypeOf(ring.Ring{})

	return []TypeCoverage{
		{engineT, map[string]Class{
			"now": Captured, "seq": Captured, "all": Captured, "stopped": Captured,
			"events": Asserted, "nowq": Asserted, "nowqAt": Asserted,
			"live": Asserted, "blocked": Asserted, "running": Asserted, "handoff": Asserted,
			"free": Wiring, "limit": Wiring, "limited": Wiring, "idle": Wiring, "tr": Wiring,
		}},
		{networkT, map[string]Class{
			"links": Captured, "stats": Captured,
			"e": Wiring, "cfg": Wiring, "sinks": Wiring, "routes": Wiring,
			"pool": Wiring, "tr": Wiring,
		}},
		{fieldType(networkT, "links"), map[string]Class{
			"freeAt": Captured, "busy": Captured, "id": Wiring,
		}},
		{addrSpaceT, map[string]Class{
			"pages": Captured, "brk": Captured,
			"Snoop": Wiring, "Fault": Wiring, "ck": Wiring,
		}},
		{fieldType(addrSpaceT, "pages"), map[string]Class{
			"data": Captured, "mapped": Captured, "prot": Captured,
		}},
		{nicT, map[string]Class{
			"cfg": Captured, "opt": Captured, "ipt": Captured, "optGen": Captured,
			"fifoHigh": Captured, "dropped": Captured,
			"duQueue": Asserted, "duSlots": Asserted, "duCond": Asserted,
			"fifo": Asserted, "fifoBytes": Asserted, "stalled": Asserted,
			"fifoCond": Asserted, "outAU": Asserted, "fenceCond": Asserted,
			"combine": Asserted, "nicPort": Asserted, "rxQueue": Asserted,
			"rxCur": Asserted, "duReq": Asserted, "duPkt": Asserted,
			"duDst": Asserted, "duStart": Asserted, "outPkt": Asserted, "outDst": Asserted,
			"e": Wiring, "id": Wiring, "net": Wiring, "mem": Wiring, "bus": Wiring,
			"acct": Wiring, "pktFree": Wiring, "duFree": Wiring, "flushFn": Wiring,
			"rx": Wiring, "du": Wiring, "out": Wiring,
			"rxRecvFn": Wiring, "duRecvFn": Wiring, "outRecvFn": Wiring, "tr": Wiring,
			"RaiseInterrupt": Wiring, "OnDeliver": Wiring,
		}},
		{machineT, map[string]Class{
			"E": Captured, "Net": Captured, "Nodes": Captured,
			"Cfg": Captured, "Acct": Captured,
		}},
		{nodeT, map[string]Class{
			"Mem": Captured, "NIC": Captured, "Acct": Captured,
			"Bus": Asserted, "CPU": Captured,
			"ID": Wiring, "M": Wiring, "notify": Wiring, "notifyName": Wiring,
		}},
		{cpuT, map[string]Class{
			// accum/pending/stolen carry across phase boundaries (a handler
			// can steal time after the application's final flush of a phase).
			"accum": Captured, "pending": Captured, "stolen": Captured, "waiting": Asserted,
			"node": Wiring, "acct": Wiring, "shadow": Wiring, "maxAccum": Wiring,
		}},
		{epT, map[string]Class{
			"pageToExport": Captured, "nextExport": Captured,
			"deliveries": Captured, "notifyBlocked": Captured,
			"recvCond": Asserted, "notifyQueue": Asserted,
			"Node": Wiring, "sys": Wiring, "tr": Wiring, "notifyQName": Wiring,
		}},
		{exportT, map[string]Class{
			"deliveries": Captured, "notify": Captured,
			"recvCond": Asserted,
			"ep":       Wiring, "id": Wiring, "Base": Wiring, "PageCnt": Wiring, "Size": Wiring,
		}},
		{svmSysT, map[string]Class{
			"cfg": Captured, "nodes": Captured, "locks": Captured, "brk": Captured,
			"sys": Wiring, "Pages": Wiring,
		}},
		{svmRtT, map[string]Class{
			"state": Captured, "barEpoch": Captured, "bar": Captured,
			"reqIn": Captured, "reqOut": Captured, "repIn": Captured, "repOut": Captured,
			"dirty": Asserted, "sinceBarrier": Asserted, "pendInval": Asserted,
			"localGrants": Asserted, "reqParse": Asserted, "repParse": Asserted,
			"svc": Asserted, "barWait": Asserted, "lockCond": Asserted,
			"s": Wiring, "rank": Wiring, "node": Wiring, "ep": Wiring, "base": Wiring,
			"regionExp": Wiring, "regionImp": Wiring, "tr": Wiring,
		}},
		{fieldType(svmSysT, "locks"), map[string]Class{
			"held": Captured, "holder": Captured, "waiters": Captured,
			"version": Captured, "noticeVer": Captured, "lastSeen": Captured,
		}},
		{fieldType(svmRtT, "bar"), map[string]Class{
			"epoch": Captured, "arrived": Asserted, "writers": Asserted, "n": Wiring,
		}},
		{fieldType(svmRtT, "state"), map[string]Class{
			"status": Captured, "twin": Asserted,
		}},
		{fieldType(svmRtT, "reqParse"), map[string]Class{
			"haveHdr": Asserted, "m": Asserted, "need": Asserted,
		}},
		{ringT, map[string]Class{
			"readPos": Captured, "uncredited": Captured, "writePos": Captured,
			"credit": Captured, "scratch": Captured,
			"cfg": Wiring, "size": Wiring, "sndEP": Wiring, "rcvEP": Wiring,
			"dataExp": Wiring, "creditImp": Wiring, "dataImp": Wiring,
			"creditExp": Wiring, "mirror": Wiring,
		}},
	}
}
