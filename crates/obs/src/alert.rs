//! Multi-window burn-rate alerting over windowed bad/total counts.
//!
//! A burn rate is the observed bad fraction divided by the SLO's error
//! budget (`1 − objective`): burning at exactly 1.0× consumes the
//! budget precisely at the objective's pace. Each [`AlertRule`] pairs
//! a **fast** lookback (catches sharp regressions quickly) with a
//! **slow** lookback (suppresses single-window blips): the rule fires
//! only when *both* lookbacks burn above their thresholds, and
//! resolves as soon as either drops below — the classic multi-window,
//! multi-burn-rate pager recipe.
//!
//! The engine is deterministic by construction: it never reads a
//! clock, consumes one `(bad, total)` pair per window in caller order,
//! and does integer-fed f64 arithmetic only — same seed, same window
//! feed, bit-identical transition sequence. Callers export transitions
//! as metric families and stamp them into the trace ring (see
//! [`Stage::Alert`](crate::trace::Stage)) so flight-recorder dumps
//! carry alert history.

use std::collections::VecDeque;
use std::fmt;

/// One multi-window burn-rate rule over a windowed SLO feed.
#[derive(Debug, Clone, Copy)]
pub struct AlertRule {
    /// Rule name, rendered in transitions and stamped into traces.
    pub name: &'static str,
    /// SLO objective, e.g. `0.999` for a 99.9% availability target;
    /// the error budget is `1 − objective`.
    pub objective: f64,
    /// Fast lookback length in windows.
    pub fast_windows: usize,
    /// Slow lookback length in windows.
    pub slow_windows: usize,
    /// Fire when the fast lookback burns at least this many budgets.
    pub fast_burn: f64,
    /// …and the slow lookback burns at least this many budgets.
    pub slow_burn: f64,
    /// Static trace detail stamped on an `ok → firing` transition.
    pub firing_detail: &'static str,
    /// Static trace detail stamped on a `firing → ok` transition.
    pub resolved_detail: &'static str,
}

impl AlertRule {
    /// Availability pager over the service SLO math
    /// (`uuidp_client::FaultCounters::render_slo` renders the same 99.9%
    /// objective): a sharp 2-window spike burning ≥ 10 budgets plus an
    /// 8-window burn ≥ 2 budgets pages; one clean fast lookback resolves
    /// it.
    pub fn availability() -> AlertRule {
        AlertRule {
            name: "availability-burn",
            objective: 0.999,
            fast_windows: 2,
            slow_windows: 8,
            fast_burn: 10.0,
            slow_burn: 2.0,
            firing_detail: "alert availability-burn firing",
            resolved_detail: "alert availability-burn resolved",
        }
    }

    /// Scrape-health pager: fleet metric scrapes that fail under
    /// chaos degrade a node's series; losing more than 1% of scrapes
    /// sustained across the slow lookback pages.
    pub fn scrape_health() -> AlertRule {
        AlertRule {
            name: "scrape-burn",
            objective: 0.99,
            fast_windows: 1,
            slow_windows: 4,
            fast_burn: 10.0,
            slow_burn: 2.0,
            firing_detail: "alert scrape-burn firing",
            resolved_detail: "alert scrape-burn resolved",
        }
    }
}

/// Alert state: boring or paging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// Within budget.
    Ok,
    /// Both lookbacks burning above threshold.
    Firing,
}

impl fmt::Display for AlertState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AlertState::Ok => "ok",
            AlertState::Firing => "firing",
        })
    }
}

/// One state change of one rule, with the burn rates that caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertTransition {
    /// Name of the rule that transitioned.
    pub rule: &'static str,
    /// Window index (0-based feed order) at which the change landed.
    pub window: u64,
    /// New state.
    pub to: AlertState,
    /// Fast-lookback burn rate at the transition.
    pub fast_burn: f64,
    /// Slow-lookback burn rate at the transition.
    pub slow_burn: f64,
    /// Static trace detail for this transition (from the rule).
    pub detail: &'static str,
}

impl AlertTransition {
    /// Fixed-format render, greppable in CI:
    /// `alert: availability-burn firing at window 3 (fast 20.00x, slow 5.00x)`.
    pub fn render(&self) -> String {
        format!(
            "alert: {} {} at window {} (fast {:.2}x, slow {:.2}x)",
            self.rule, self.to, self.window, self.fast_burn, self.slow_burn
        )
    }
}

/// Evaluates a set of [`AlertRule`]s over one windowed bad/total feed.
#[derive(Debug)]
pub struct BurnRateAlerts {
    rules: Vec<AlertRule>,
    states: Vec<AlertState>,
    /// Ring of per-window `(bad, total)`, bounded by the longest
    /// lookback any rule needs.
    ring: VecDeque<(u64, u64)>,
    depth: usize,
    next_window: u64,
    transitions: Vec<AlertTransition>,
}

impl BurnRateAlerts {
    /// An engine over `rules`, all fed from the same bad/total stream.
    pub fn new(rules: Vec<AlertRule>) -> BurnRateAlerts {
        let depth = rules
            .iter()
            .map(|r| r.fast_windows.max(r.slow_windows))
            .max()
            .unwrap_or(1)
            .max(1);
        let states = vec![AlertState::Ok; rules.len()];
        BurnRateAlerts {
            rules,
            states,
            ring: VecDeque::new(),
            depth,
            next_window: 0,
            transitions: Vec::new(),
        }
    }

    fn burn(&self, lookback: usize, objective: f64) -> f64 {
        let lookback = lookback.max(1);
        let (mut bad, mut total) = (0u64, 0u64);
        for &(b, t) in self.ring.iter().rev().take(lookback) {
            bad += b;
            total += t;
        }
        if total == 0 {
            return 0.0;
        }
        let budget = 1.0 - objective;
        (bad as f64 / total as f64) / budget
    }

    /// Feeds one window's `(bad, total)` and returns the transitions
    /// it caused, in rule order. Deterministic in the feed sequence.
    pub fn observe(&mut self, bad: u64, total: u64) -> Vec<AlertTransition> {
        self.ring.push_back((bad, total));
        while self.ring.len() > self.depth {
            self.ring.pop_front();
        }
        let window = self.next_window;
        self.next_window += 1;
        let mut out = Vec::new();
        for (i, rule) in self.rules.iter().enumerate() {
            let fast = self.burn(rule.fast_windows, rule.objective);
            let slow = self.burn(rule.slow_windows, rule.objective);
            let firing = fast >= rule.fast_burn && slow >= rule.slow_burn;
            let to = if firing {
                AlertState::Firing
            } else {
                AlertState::Ok
            };
            if to != self.states[i] {
                self.states[i] = to;
                out.push(AlertTransition {
                    rule: rule.name,
                    window,
                    to,
                    fast_burn: fast,
                    slow_burn: slow,
                    detail: match to {
                        AlertState::Firing => rule.firing_detail,
                        AlertState::Ok => rule.resolved_detail,
                    },
                });
            }
        }
        self.transitions.extend(out.iter().cloned());
        out
    }

    /// Number of rules currently firing.
    pub fn firing(&self) -> usize {
        self.states
            .iter()
            .filter(|s| **s == AlertState::Firing)
            .count()
    }

    /// Names of currently firing rules, in rule order.
    pub fn firing_rules(&self) -> Vec<&'static str> {
        self.rules
            .iter()
            .zip(&self.states)
            .filter(|(_, s)| **s == AlertState::Firing)
            .map(|(r, _)| r.name)
            .collect()
    }

    /// Every transition since construction, in feed order.
    pub fn transitions(&self) -> &[AlertTransition] {
        &self.transitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> BurnRateAlerts {
        BurnRateAlerts::new(vec![AlertRule::availability()])
    }

    #[test]
    fn quiet_feed_never_transitions() {
        let mut e = engine();
        for _ in 0..32 {
            assert!(e.observe(0, 1000).is_empty());
        }
        assert_eq!(e.firing(), 0);
        assert!(e.transitions().is_empty());
    }

    #[test]
    fn sustained_burn_fires_then_clean_windows_resolve() {
        let mut e = engine();
        // 5% bad against a 0.1% budget: 50× burn on both lookbacks.
        let mut fired_at = None;
        for w in 0..4u64 {
            for t in e.observe(50, 1000) {
                assert_eq!(t.to, AlertState::Firing);
                fired_at = Some(w);
            }
        }
        assert_eq!(fired_at, Some(0), "first bad window already 50x");
        assert_eq!(e.firing(), 1);
        assert_eq!(e.firing_rules(), vec!["availability-burn"]);
        // Clean windows: fast lookback (2 windows) clears first.
        let mut resolved = false;
        for _ in 0..8 {
            for t in e.observe(0, 1000) {
                assert_eq!(t.to, AlertState::Ok);
                resolved = true;
            }
        }
        assert!(resolved);
        assert_eq!(e.firing(), 0);
        assert_eq!(e.transitions().len(), 2, "one firing, one resolved");
    }

    #[test]
    fn single_blip_below_fast_threshold_stays_quiet() {
        let mut e = engine();
        for _ in 0..4 {
            e.observe(0, 1000);
        }
        // 0.5% bad = 5× burn: above slow threshold (2×) but below the
        // fast threshold (10×) — the blip must not page.
        assert!(e.observe(5, 1000).is_empty());
        for _ in 0..4 {
            assert!(e.observe(0, 1000).is_empty());
        }
        assert_eq!(e.firing(), 0);
    }

    #[test]
    fn same_feed_is_bit_identical() {
        let feed: Vec<(u64, u64)> = (0..64)
            .map(|i| if i % 7 == 3 { (40, 997) } else { (0, 997) })
            .collect();
        let run = |feed: &[(u64, u64)]| {
            let mut e =
                BurnRateAlerts::new(vec![AlertRule::availability(), AlertRule::scrape_health()]);
            for &(b, t) in feed {
                e.observe(b, t);
            }
            e.transitions()
                .iter()
                .map(AlertTransition::render)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(&feed), run(&feed));
        assert!(!run(&feed).is_empty(), "feed chosen to transition");
    }

    #[test]
    fn empty_total_windows_burn_nothing() {
        let mut e = engine();
        for _ in 0..8 {
            assert!(e.observe(0, 0).is_empty());
        }
        assert_eq!(e.firing(), 0);
    }
}
