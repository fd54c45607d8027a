//! Logical-clock tracing for the daemon pipeline and engine epochs.
//!
//! Spans are timed on a logical clock: every enter/exit advances a
//! monotonically increasing step counter, so span extents are deterministic
//! and byte-identical across `--jobs N`. Wall-clock cycles are strictly
//! opt-in through a [`CycleSource`] — the only sanctioned implementation
//! lives in `bench::timing` — and default to 0 everywhere the determinism
//! regression runs.

use crate::json::Obj;

/// Opt-in wall-clock provider. Installing one makes `SpanRecord::cycles`
/// non-zero; never install one on a path whose output is compared
/// byte-for-byte across runs.
pub trait CycleSource: Send {
    fn now_cycles(&mut self) -> u64;
}

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    pub name: &'static str,
    /// Daemon tick / engine epoch the span belongs to.
    pub tick: u64,
    /// Nesting depth at enter (0 = top-level).
    pub depth: u32,
    /// Logical-clock step at enter.
    pub enter_step: u64,
    /// Logical-clock step at exit.
    pub exit_step: u64,
    /// Elapsed cycles from the installed [`CycleSource`], or 0 when none is
    /// installed (the deterministic default).
    pub cycles: u64,
}

impl SpanRecord {
    /// Span extent on the logical clock.
    pub fn steps(&self) -> u64 {
        self.exit_step - self.enter_step
    }

    pub fn to_json(&self) -> String {
        Obj::new()
            .str_field("span", self.name)
            .u64_field("tick", self.tick)
            .u64_field("depth", u64::from(self.depth))
            .u64_field("enter", self.enter_step)
            .u64_field("exit", self.exit_step)
            .u64_field("steps", self.steps())
            .u64_field("cycles", self.cycles)
            .finish()
    }
}

/// Span collector. Disabled tracers make every operation a no-op so
/// instrumented code paths cost nothing on untraced runs.
pub struct Tracer {
    enabled: bool,
    tick: u64,
    step: u64,
    open: Vec<(&'static str, u64, u64)>,
    done: Vec<SpanRecord>,
    cycles: Option<Box<dyn CycleSource>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled)
            .field("tick", &self.tick)
            .field("step", &self.step)
            .field("open", &self.open.len())
            .field("done", &self.done.len())
            .field("has_cycle_source", &self.cycles.is_some())
            .finish()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An enabled tracer on the logical clock only.
    pub fn new() -> Self {
        Tracer {
            enabled: true,
            tick: 0,
            step: 0,
            open: Vec::new(),
            done: Vec::new(),
            cycles: None,
        }
    }

    /// A tracer whose every operation is a no-op.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    /// Install a wall-clock source (see [`CycleSource`] for the caveats).
    pub fn set_cycle_source(&mut self, source: Box<dyn CycleSource>) {
        self.cycles = Some(source);
    }

    /// Set the tick/epoch stamped on subsequently completed spans.
    pub fn set_tick(&mut self, tick: u64) {
        self.tick = tick;
    }

    fn now(&mut self) -> u64 {
        match &mut self.cycles {
            Some(src) => src.now_cycles(),
            None => 0,
        }
    }

    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        self.step += 1;
        let at = self.now();
        self.open.push((name, self.step, at));
    }

    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        self.step += 1;
        let (name, enter_step, enter_cycles) = match self.open.pop() {
            Some(frame) => frame,
            None => return, // unbalanced exit; drop rather than panic
        };
        let exit_cycles = self.now();
        self.done.push(SpanRecord {
            name,
            tick: self.tick,
            depth: self.open.len() as u32,
            enter_step,
            exit_step: self.step,
            cycles: exit_cycles.saturating_sub(enter_cycles),
        });
    }

    /// Run `f` inside a span named `name`. The closure receives the tracer
    /// back so stages can open nested spans.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.enter(name);
        let value = f(self);
        self.exit();
        value
    }

    /// The spans completed since the last [`Tracer::clear`], in completion
    /// order (nested spans precede their parents).
    pub fn completed(&self) -> &[SpanRecord] {
        &self.done
    }

    /// Forget the completed spans, keeping their storage for the next
    /// tick. Open spans are left untouched.
    pub fn clear(&mut self) {
        self.done.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_advance_the_logical_clock() {
        let mut t = Tracer::new();
        t.set_tick(3);
        t.scope("tick", |t| {
            t.scope("collect", |_| {});
            t.scope("apply", |_| {});
        });
        let spans = t.completed();
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["collect", "apply", "tick"]);
        let collect = &spans[0];
        assert_eq!(collect.tick, 3);
        assert_eq!(collect.depth, 1);
        assert_eq!((collect.enter_step, collect.exit_step), (2, 3));
        let tick = &spans[2];
        assert_eq!(tick.depth, 0);
        assert_eq!((tick.enter_step, tick.exit_step), (1, 6));
        assert_eq!(tick.steps(), 5);
        // No cycle source installed: cycles stay 0 (the deterministic default).
        assert!(spans.iter().all(|s| s.cycles == 0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        t.set_tick(9);
        let v = t.scope("tick", |t| {
            t.enter("inner");
            t.exit();
            41 + 1
        });
        assert_eq!(v, 42);
        assert!(t.completed().is_empty());
    }

    #[test]
    fn cycle_source_times_span_extents() {
        struct Fake(u64);
        impl CycleSource for Fake {
            fn now_cycles(&mut self) -> u64 {
                self.0 += 100;
                self.0
            }
        }
        let mut t = Tracer::new();
        t.set_cycle_source(Box::new(Fake(0)));
        t.scope("tick", |_| {});
        assert_eq!(t.completed()[0].cycles, 100);
        t.clear();
        assert!(t.completed().is_empty());
    }

    #[test]
    fn span_json_shape_is_stable() {
        let s = SpanRecord {
            name: "apply",
            tick: 7,
            depth: 1,
            enter_step: 2,
            exit_step: 5,
            cycles: 0,
        };
        assert_eq!(
            s.to_json(),
            "{\"span\":\"apply\",\"tick\":7,\"depth\":1,\"enter\":2,\"exit\":5,\"steps\":3,\"cycles\":0}"
        );
        crate::json::parse(&s.to_json()).expect("span json parses");
    }

    #[test]
    fn unbalanced_exit_is_dropped_not_panicked() {
        let mut t = Tracer::new();
        t.exit();
        assert!(t.completed().is_empty());
    }
}
