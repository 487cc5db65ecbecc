package core

// Listener observes the event stream of a run. Every dynamic
// technology in the framework — noise statistics, race detection,
// deadlock detection, replay recording, coverage, tracing — is a
// Listener; this is the paper's "standard interface" through which a
// researcher plugs one component into the stock pipeline.
//
// Events are delivered in a total order (the runtimes serialize
// emission), and the *Event is only valid for the duration of the call:
// listeners that retain events must copy them.
type Listener interface {
	OnEvent(ev *Event)
}

// RunObserver is an optional extension for listeners that need run
// boundaries (e.g. per-run coverage snapshots, trace headers).
type RunObserver interface {
	RunStart(info RunInfo)
	RunEnd(res *Result)
}

// RunInfo describes a run to observers before any event is emitted.
type RunInfo struct {
	Program string // program name, if known
	Mode    string // "controlled" or "native"
	Seed    int64  // scheduler/noise seed
}

// ListenerFunc adapts a function to the Listener interface.
type ListenerFunc func(ev *Event)

// OnEvent calls f(ev).
func (f ListenerFunc) OnEvent(ev *Event) { f(ev) }

// OpMask is a bitset over Op values, used to declare which event
// classes a listener subscribes to.
type OpMask uint32

// MaskOf builds a mask from operation kinds.
func MaskOf(ops ...Op) OpMask {
	var m OpMask
	for _, o := range ops {
		m |= 1 << o
	}
	return m
}

// AllOps is the mask subscribing to every event class.
const AllOps = OpMask(1<<numOps) - 1

// Has reports whether op is in the mask.
func (m OpMask) Has(op Op) bool { return m&(1<<op) != 0 }

// OpFilter is an optional Listener extension: a listener that only
// consumes certain event classes declares them, and runtimes skip the
// fan-out call (probe construction stays, since strategies may still
// observe the event) for classes no attached listener wants. Listeners
// without the method are assumed to want everything.
type OpFilter interface {
	WantOps() OpMask
}

// LocationIndifferent is an optional Listener extension mirroring the
// strategy-side location gate: capturing the source location of every
// instrumented operation costs a frame-pointer read and a cache lookup
// per probe, so the controlled runtime turns capture on whenever any
// listener is attached — unless every attached listener declares, by
// implementing this interface with NeedsLocations() false, that it
// never reads Event.Loc/LocID. Listeners without the method are
// assumed to need locations. The state-hashing listener of the
// exploration engine's reduction layer is the motivating case: it
// observes every event on the hottest search path and pays nothing
// for locations it never reads.
type LocationIndifferent interface {
	NeedsLocations() bool
}

// MultiListener fans one event stream out to several listeners in
// order.
type MultiListener []Listener

// NeedLocations reports whether any listener in m may read event
// locations (see LocationIndifferent). An empty MultiListener needs
// none.
func (m MultiListener) NeedLocations() bool {
	for _, l := range m {
		li, ok := l.(LocationIndifferent)
		if !ok || li.NeedsLocations() {
			return true
		}
	}
	return false
}

// OnEvent delivers ev to each listener in order.
func (m MultiListener) OnEvent(ev *Event) {
	for _, l := range m {
		l.OnEvent(ev)
	}
}

// WantMask is the union of the listeners' subscriptions: the runtime
// skips OnEvent fan-out entirely for event classes outside it. An
// empty MultiListener wants nothing.
func (m MultiListener) WantMask() OpMask {
	var mask OpMask
	for _, l := range m {
		if f, ok := l.(OpFilter); ok {
			mask |= f.WantOps()
		} else {
			mask = AllOps
		}
	}
	return mask
}

// StartRun notifies every RunObserver in m.
func (m MultiListener) StartRun(info RunInfo) {
	for _, l := range m {
		if ro, ok := l.(RunObserver); ok {
			ro.RunStart(info)
		}
	}
}

// EndRun notifies every RunObserver in m.
func (m MultiListener) EndRun(res *Result) {
	for _, l := range m {
		if ro, ok := l.(RunObserver); ok {
			ro.RunEnd(res)
		}
	}
}
