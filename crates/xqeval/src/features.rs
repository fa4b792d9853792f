//! The optimizer feature set: which evaluation layers an engine may
//! use, as one `Copy` value.
//!
//! | name    | gates                                                        |
//! |---------|--------------------------------------------------------------|
//! | `opt`   | pushdown, view unfolding, indexed reads, versioned caches    |
//! | `join`  | the FLWOR hash-join rewrite (kept under `-opt`)              |
//! | `batch` | prepared-plan reuse and batched source calls (needs `opt`)   |
//! | `graft` | zero-copy subtree adoption in constructors                   |
//! | `lazy`  | pipelined FLWOR streaming and early-exit consumers           |
//!
//! Every layer is semantically transparent, so any subset must give
//! the same answers; [`Features::NONE`] is the plain reference
//! evaluator. A spec string names the enabled features
//! (`opt,join,lazy`), says `none`, or removes features from the full
//! set (`-lazy,-graft`). Engines start from `XQSE_FEATURES`, read once
//! per process; unset means [`Features::ALL`].

use std::fmt;
use std::sync::OnceLock;

/// The evaluation layers an engine may use. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Features {
    /// Pushdown, view unfolding, indexed reads and the versioned
    /// materialization caches. Off in XQueryP sequential mode.
    pub opt: bool,
    /// The FLWOR hash-join rewrite. It predates the `opt` layer, so
    /// `-opt` keeps it; XQueryP sequential mode turns it off too.
    pub join: bool,
    /// Prepared-plan reuse and batched/memoized source calls. Engages
    /// only together with `opt` (see [`Features::batching`]).
    pub batch: bool,
    /// Constructors adopt immutable subtrees by reference instead of
    /// deep-copying them.
    pub graft: bool,
    /// FLWORs stream their tuples and early-exit consumers stop
    /// pulling once their answer is decided.
    pub lazy: bool,
}

const NAMES: [&str; 5] = ["opt", "join", "batch", "graft", "lazy"];

impl Features {
    /// Every layer on: the default.
    pub const ALL: Features =
        Features { opt: true, join: true, batch: true, graft: true, lazy: true };
    /// Every layer off: the plain reference evaluator.
    pub const NONE: Features =
        Features { opt: false, join: false, batch: false, graft: false, lazy: false };

    /// Is the prepared-plan / batched-source layer engaged? It sits on
    /// top of the `opt` layer, so it needs both flags.
    pub fn batching(self) -> bool {
        self.opt && self.batch
    }

    fn flags(self) -> [bool; 5] {
        [self.opt, self.join, self.batch, self.graft, self.lazy]
    }

    fn flag(&mut self, name: &str) -> Option<&mut bool> {
        match name {
            "opt" => Some(&mut self.opt),
            "join" => Some(&mut self.join),
            "batch" => Some(&mut self.batch),
            "graft" => Some(&mut self.graft),
            "lazy" => Some(&mut self.lazy),
            _ => None,
        }
    }

    /// Parse a spec: enabled names (`opt,join,lazy`), `none`, or
    /// removals from the full set (`-lazy,-graft`). The error names
    /// the offending token.
    pub fn parse(spec: &str) -> Result<Features, String> {
        let bad = |why: String| {
            Err(format!(
                "invalid feature spec `{spec}`: {why} (features: {}; \
                 spell a set as `opt,lazy`, `none` or `-lazy,-graft`)",
                NAMES.join(", ")
            ))
        };
        if spec.trim() == "none" {
            return Ok(Features::NONE);
        }
        let tokens: Vec<&str> = spec.split(',').map(str::trim).collect();
        let removing = tokens.first().is_some_and(|t| t.starts_with('-'));
        let mut f = if removing { Features::ALL } else { Features::NONE };
        for token in tokens {
            let name = match (removing, token.strip_prefix('-')) {
                (true, Some(name)) => name,
                (false, None) => token,
                _ => return bad(format!("`{token}` mixes names with removals")),
            };
            match f.flag(name) {
                Some(on) => *on = !removing,
                None => return bad(format!("unknown feature `{name}`")),
            }
        }
        Ok(f)
    }

    /// The set in `XQSE_FEATURES` ([`Features::ALL`] when unset),
    /// parsed once per process.
    pub fn from_env() -> Result<Features, String> {
        static ENV: OnceLock<Result<Features, String>> = OnceLock::new();
        ENV.get_or_init(|| match std::env::var("XQSE_FEATURES") {
            Ok(spec) => Features::parse(&spec),
            Err(std::env::VarError::NotPresent) => Ok(Features::ALL),
            Err(e) => Err(e.to_string()),
        })
        .clone()
        .map_err(|e| format!("XQSE_FEATURES: {e}"))
    }
}

impl fmt::Display for Features {
    /// The enabled names in canonical order, or `none`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let on: Vec<&str> =
            NAMES.into_iter().zip(self.flags()).filter(|(_, on)| *on).map(|(n, _)| n).collect();
        if on.is_empty() {
            f.write_str("none")
        } else {
            f.write_str(&on.join(","))
        }
    }
}
