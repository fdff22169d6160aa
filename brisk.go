// Package brisk is the public API of the Baseline Reduced Instrumentation
// System Kernel (BRISK), a portable and flexible distributed
// instrumentation system after Bakić, Mutka and Rover (IPPS 1999).
//
// BRISK follows a three-component model of a distributed instrumentation
// system:
//
//   - The local instrumentation server (LIS) on every node of the target
//     system: application goroutines carry internal sensors (the Notice
//     calls on a Sensor) that write dynamically-typed event records into
//     lock-free shared-memory rings, and one external sensor per node
//     drains the rings, applies the node's clock correction, and ships
//     record batches to the manager. A Node bundles all of this.
//   - The instrumentation-system manager (ISM): it merges the per-node
//     streams with a heap-based on-line sorter keyed by synchronized
//     timestamps, repairs causally-impossible orderings (tachyons), runs
//     the modified-Cristian clock-synchronization master, and fans the
//     sorted stream out to a memory buffer for consumer tools, PICL
//     ASCII trace files, and remote visual objects. A Manager bundles
//     this.
//   - The transfer protocol (TP): XDR-encoded records with a compressed
//     meta-information header over TCP stream sockets. It is internal to
//     the kernel; applications never touch it.
//
// # Quick start
//
//	mgr, _ := brisk.StartManager(brisk.ManagerOptions{})
//	defer mgr.Close()
//
//	node, _ := brisk.ConnectNode(brisk.NodeOptions{ManagerAddr: mgr.Addr()})
//	defer node.Close()
//
//	s := node.NewSensor("my-app")
//	s.Notice6i(1, 10, 20, 30, 40, 50, 60)
//
//	c := mgr.Consume()
//	rec, ok := c.Next()
//
// The package deliberately exposes the kernel's tuning knobs (batch sizes,
// flush intervals, the sorter's time frame policy, the synchronization
// period) because BRISK's design goal is flexibility in the performance
// sense: users trade among intrusion, throughput, latency and ordering
// for their environment.
package brisk

import (
	"brisk/internal/record"
	"brisk/internal/sensor"
	"brisk/internal/vclock"
)

// Record is one instrumentation-data record: an event class, up to eight
// dynamically-typed fields, and cached views of the system fields
// (timestamp, causal identifiers).
type Record = record.Record

// Value is one dynamically-typed record field.
type Value = record.Value

// FieldType identifies a field's wire type.
type FieldType = record.Type

// Sensor is an internal sensor: the application-side notice issuer. A
// Sensor must be used from a single goroutine.
type Sensor = sensor.Sensor

// Clock supplies time in microseconds of UTC.
type Clock = vclock.Clock

// Field constructors, re-exported from the record model so applications
// can build dynamic notices without importing internal packages.
var (
	// I8 .. U64 build integer fields of the indicated width.
	I8  = record.I8Val
	U8  = record.U8Val
	I16 = record.I16Val
	U16 = record.U16Val
	I32 = record.I32Val
	U32 = record.U32Val
	I64 = record.I64Val
	U64 = record.U64Val
	// F32 and F64 build float fields.
	F32 = record.F32Val
	F64 = record.F64Val
	// Str builds a string field.
	Str = record.StrVal
	// Bool builds a boolean field.
	Bool = record.BoolVal
	// Reason and Conseq build the causal system fields: a consequence is
	// never delivered before the reason carrying the same identifier.
	Reason = record.ReasonVal
	Conseq = record.ConseqVal
	// TSField builds an explicit timestamp field (µs of UTC). Sensors
	// embed timestamps automatically; this is for tools assembling
	// records by hand.
	TSField = record.TSVal
)

// NewRecord assembles a record from an event class and field values,
// for tools and tests that synthesize records outside a sensor.
func NewRecord(event uint8, fields ...Value) Record {
	return record.New(event, fields...)
}
