// Package smartssd is a full-system simulator and query-processing
// library reproducing "Query Processing on Smart SSDs: Opportunities
// and Challenges" (Do, Kee, Patel, Park, Park, DeWitt; SIGMOD 2013).
//
// A System bundles a simulated Smart SSD (NAND array, FTL, flash
// channels, shared DMA bus, embedded CPU, SAS host link), a baseline
// HDD, a host query executor with a buffer pool, and a cost-based
// planner that decides — per query — whether to process data the usual
// way on the host or to push scans, selections, aggregations, and
// simple hash joins into the device through the paper's OPEN/GET/CLOSE
// session protocol. Every run returns bit-exact query results together
// with simulated elapsed time, per-resource bottleneck, data traffic,
// and whole-system/I/O-subsystem energy.
//
// Quick start:
//
//	sys, _ := smartssd.New(smartssd.Config{})
//	tbl := smartssd.NewSchema(
//		smartssd.Column{Name: "id", Kind: smartssd.Int64},
//		smartssd.Column{Name: "val", Kind: smartssd.Int32},
//	)
//	sys.CreateTable("t", tbl, smartssd.PAX, 4096, smartssd.OnSSD)
//	sys.Load("t", gen)
//	res, _ := sys.Run(smartssd.QuerySpec{
//		Table:  "t",
//		Filter: smartssd.LT(smartssd.ColOf(tbl, "val"), smartssd.Int(10)),
//		Aggs:   []smartssd.AggSpec{{Kind: smartssd.Sum, E: smartssd.ColOf(tbl, "id"), Name: "s"}},
//	}, smartssd.Auto)
//	fmt.Println(res.Rows, res.Elapsed, res.Energy.SystemkJ())
//
// See the examples directory for complete programs, including the
// paper's TPC-H Q6/Q14 and Synthetic64 join experiments (package
// workload generates those datasets).
package smartssd

import (
	"io"
	"time"

	"smartssd/internal/core"
	"smartssd/internal/device"
	"smartssd/internal/energy"
	"smartssd/internal/expr"
	"smartssd/internal/fault"
	"smartssd/internal/hdd"
	"smartssd/internal/hostif"
	"smartssd/internal/metrics"
	"smartssd/internal/nand"
	"smartssd/internal/page"
	"smartssd/internal/plan"
	"smartssd/internal/schema"
	"smartssd/internal/sim"
	"smartssd/internal/ssd"
	"smartssd/internal/trace"
)

// System is the integrated engine: devices, host executor, buffer
// pool, Smart SSD runtime, planner, and catalog.
type System = core.Engine

// Config assembles a System; the zero value reproduces the paper's
// testbed (Samsung-class Smart SSD, 10K RPM SAS HDD, 2 GHz 8-core host).
type Config = core.Config

// New builds a System.
func New(cfg Config) (*System, error) { return core.New(cfg) }

// Table placement and execution-mode selectors.
type (
	// Target selects the device a table lives on.
	Target = core.Target
	// Mode selects where a query executes.
	Mode = core.Mode
	// Placement reports where a run actually executed.
	Placement = core.Placement
)

// Placement targets and execution modes.
const (
	OnSSD = core.OnSSD
	OnHDD = core.OnHDD

	Auto        = core.Auto
	ForceHost   = core.ForceHost
	ForceDevice = core.ForceDevice
	ForceHybrid = core.ForceHybrid

	RanHost   = core.RanHost
	RanDevice = core.RanDevice
	RanHybrid = core.RanHybrid
)

// Query construction types.
type (
	// QuerySpec is a query in the paper's supported class.
	QuerySpec = core.QuerySpec
	// JoinClause names a simple hash join.
	JoinClause = core.JoinClause
	// Result is one run's rows plus its complete measurement.
	Result = core.Result
	// OutputCol names one projected expression.
	OutputCol = plan.OutputCol
	// AggSpec is one aggregate output column.
	AggSpec = plan.AggSpec
	// AggKind enumerates aggregate functions.
	AggKind = plan.AggKind
)

// Aggregate functions.
const (
	Sum   = plan.Sum
	Count = plan.Count
	Min   = plan.Min
	Max   = plan.Max
)

// Cluster is the §4.3 extension: a host coordinating an array of Smart
// SSDs like a parallel DBMS.
type (
	Cluster       = core.Cluster
	ClusterResult = core.ClusterResult
)

// NewCluster builds n identical Smart SSD workers.
func NewCluster(n int, params SSDParams) (*Cluster, error) {
	return core.NewCluster(n, params, device.DefaultCostModel())
}

// Schema types.
type (
	// Schema describes a table's fixed-width columns.
	Schema = schema.Schema
	// Column describes one column.
	Column = schema.Column
	// Kind enumerates column types.
	Kind = schema.Kind
	// Tuple is one decoded row.
	Tuple = schema.Tuple
	// Value is one column value.
	Value = schema.Value
	// Layout selects the page organization.
	Layout = page.Layout
)

// Column kinds and page layouts.
const (
	Int32 = schema.Int32
	Int64 = schema.Int64
	Date  = schema.Date
	Char  = schema.Char

	NSM = page.NSM
	PAX = page.PAX
)

// NewSchema builds a table schema.
func NewSchema(cols ...Column) *Schema { return schema.New(cols...) }

// IntVal returns a numeric Value.
func IntVal(v int64) Value { return schema.IntVal(v) }

// StrVal returns a CHAR Value.
func StrVal(s string) Value { return schema.StrVal(s) }

// Expression types. Booleans are Int 0/1.
type Expr = expr.Expr

// ColOf references a named column of s.
func ColOf(s *Schema, name string) Expr { return expr.ColRef(s, name) }

// ColAt references column index i (for combined join rows).
func ColAt(i int, name string, k Kind) Expr { return expr.Col{Index: i, Name: name, K: k} }

// Int is an integer literal.
func Int(v int64) Expr { return expr.IntConst(v) }

// Str is a CHAR literal.
func Str(s string) Expr { return expr.StrConst(s) }

// DateOf is a date literal, given a day count since 1970-01-01 (build
// one with DaysOf).
func DateOf(days int64) Expr { return expr.DateConst(days) }

// DaysOf converts a calendar date (UTC) to a day count.
func DaysOf(year, month, day int) int64 {
	return schema.DateVal(year, time.Month(month), day).Days()
}

// Comparison constructors.
func EQ(l, r Expr) Expr { return expr.Cmp{Op: expr.EQ, L: l, R: r} }
func NE(l, r Expr) Expr { return expr.Cmp{Op: expr.NE, L: l, R: r} }
func LT(l, r Expr) Expr { return expr.Cmp{Op: expr.LT, L: l, R: r} }
func LE(l, r Expr) Expr { return expr.Cmp{Op: expr.LE, L: l, R: r} }
func GT(l, r Expr) Expr { return expr.Cmp{Op: expr.GT, L: l, R: r} }
func GE(l, r Expr) Expr { return expr.Cmp{Op: expr.GE, L: l, R: r} }

// Boolean and arithmetic constructors.
func And(terms ...Expr) Expr { return expr.And{Terms: terms} }
func Or(terms ...Expr) Expr  { return expr.Or{Terms: terms} }
func Not(e Expr) Expr        { return expr.Not{E: e} }
func Add(l, r Expr) Expr     { return expr.Arith{Op: expr.Add, L: l, R: r} }
func Sub(l, r Expr) Expr     { return expr.Arith{Op: expr.Sub, L: l, R: r} }
func Mul(l, r Expr) Expr     { return expr.Arith{Op: expr.Mul, L: l, R: r} }
func Div(l, r Expr) Expr     { return expr.Arith{Op: expr.Div, L: l, R: r} }

// Like matches a CHAR expression against a fixed prefix (LIKE 'p%').
func Like(e Expr, prefix string) Expr { return expr.LikePrefix{E: e, Prefix: prefix} }

// Case is CASE WHEN cond THEN then ELSE els END.
func Case(cond, then, els Expr) Expr { return expr.Case{Cond: cond, Then: then, Else: els} }

// Device configuration re-exports, for building non-default systems.
type (
	// SSDParams configures the simulated (Smart) SSD.
	SSDParams = ssd.Params
	// HDDParams configures the baseline disk.
	HDDParams = hdd.Params
	// HostInterface is a host bus interface standard.
	HostInterface = hostif.Interface
	// EnergyProfile holds the testbed power constants.
	EnergyProfile = energy.Profile
	// EnergyBreakdown is one run's integrated energy.
	EnergyBreakdown = energy.Breakdown
	// DeviceCostModel holds the embedded-CPU cost constants.
	DeviceCostModel = device.CostModel
)

// DefaultSSDParams reports the paper's prototype device.
func DefaultSSDParams() SSDParams { return ssd.DefaultParams() }

// DefaultHDDParams reports the paper's baseline drive.
func DefaultHDDParams() HDDParams { return hdd.DefaultParams() }

// DefaultEnergyProfile reports the calibrated testbed power profile.
func DefaultEnergyProfile() EnergyProfile { return energy.DefaultProfile() }

// DefaultDeviceCostModel reports the calibrated embedded-CPU costs.
func DefaultDeviceCostModel() DeviceCostModel { return device.DefaultCostModel() }

// Host interface standards.
var (
	SATA2   = hostif.SATA2
	SATA3   = hostif.SATA3
	SAS6    = hostif.SAS6
	SAS12   = hostif.SAS12
	PCIe2x4 = hostif.PCIe2x4
	PCIe3x4 = hostif.PCIe3x4
)

// BandwidthTrend reports the Figure 1 series: host-interface versus
// SSD-internal bandwidth by year.
func BandwidthTrend() []hostif.TrendPoint { return hostif.Trend() }

// MeasureBandwidth probes a device's sequential-read bandwidth the way
// Table 2 does, returning internal and host MB/s.
func MeasureBandwidth(d *ssd.Device) (internal, host float64, err error) {
	p := ssd.BandwidthProbe{}
	if internal, err = p.Internal(d); err != nil {
		return 0, 0, err
	}
	host, err = p.Host(d)
	return internal, host, err
}

// Fault-injection and graceful-degradation re-exports. Set
// Config.SSD.Fault (any non-zero rate arms the injector) to exercise
// the degradation ladder: FTL read-retry and bad-block remapping,
// bounded device-retry with virtual-time backoff, and transparent host
// fallback — all deterministic for a fixed FaultConfig.Seed.
type (
	// FaultConfig sets per-site fault rates for the simulated device.
	FaultConfig = fault.Config
	// FaultStats counts injected faults by site.
	FaultStats = fault.Stats
	// FaultReport is one run's retry/fallback/recovery accounting
	// (Result.Faults).
	FaultReport = core.FaultReport
	// PartialResultError reports cluster partitions lost after
	// replica failover was exhausted.
	PartialResultError = core.PartialResultError
)

// Typed fault sentinels, for errors.Is against run and protocol errors.
var (
	// ErrPartialResult matches a cluster run that lost partitions.
	ErrPartialResult = core.ErrPartialResult
	// ErrSessionAborted matches a device session killed mid-query.
	ErrSessionAborted = device.ErrSessionAborted
	// ErrDeviceTimeout matches a GET that exceeded its deadline.
	ErrDeviceTimeout = device.ErrDeviceTimeout
	// ErrDeviceFailed matches a whole-device failure.
	ErrDeviceFailed = device.ErrDeviceFailed
	// ErrGrantDenied matches a refused device-memory grant.
	ErrGrantDenied = device.ErrGrantDenied
	// ErrUncorrectable matches a flash read whose data was lost beyond
	// ECC and read-retry.
	ErrUncorrectable = nand.ErrUncorrectable
)

// Tracing and metrics re-exports. Attach a TraceRecorder with
// System.SetRecorder to capture a run's full event timeline and export
// it as a Chrome trace_event file (chrome://tracing, Perfetto); read
// Result.Resources for the always-on per-resource utilization report.
// Both are strictly observational: with no recorder attached the
// simulator allocates nothing extra, and enabling one never perturbs
// virtual time.
type (
	// TraceEvent is one served request's record, delivered to a
	// per-request hook installed with System.SetTracer.
	TraceEvent = sim.TraceEvent
	// TraceRecord is one recorded event: a served request or an
	// OPEN/GET/CLOSE protocol span.
	TraceRecord = trace.Event
	// TraceRecorder accumulates TraceRecords across runs and writes
	// Chrome trace_event JSON.
	TraceRecorder = trace.Recorder
	// ResourceReport is a run's per-resource utilization summary
	// (Result.Resources).
	ResourceReport = metrics.Report
	// ResourceStat is one resource row of a ResourceReport.
	ResourceStat = metrics.Resource
	// PhaseStat is one protocol phase's latency aggregate.
	PhaseStat = metrics.Phase
)

// NewTraceRecorder returns an empty event recorder for
// System.SetRecorder.
func NewTraceRecorder() *TraceRecorder { return trace.NewRecorder() }

// SetClause assigns one column in an Update.
type SetClause = core.SetClause

// OrderKey sorts a result by one output-schema column.
type OrderKey = plan.OrderKey

// LoadImage builds a System from a system image previously written with
// System.SaveImage; the image's device parameters override cfg.SSD.
func LoadImage(cfg Config, r io.Reader) (*System, error) { return core.LoadImage(cfg, r) }
