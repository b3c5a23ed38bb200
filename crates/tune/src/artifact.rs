//! The serialized frontier artifact: canonical JSON, written and parsed
//! in-tree.
//!
//! The artifact is the tuner's durable output and its cache: keyed by
//! [`Circuit::structural_hash`](oneperc_circuit::Circuit::structural_hash),
//! carrying the full [tune key](crate::Tuner::tune_key) so a reload can
//! verify the lattice, seed set and cost model still match. **Byte
//! identity is contractual**: the writer emits a canonical form — fixed
//! key order, fixed 2-space indentation, floats through Rust's shortest
//! round-trip `Display`, hashes as zero-padded hex strings (JSON numbers
//! lose `u64` precision past 2⁵³) — so identical inputs and seeds produce
//! identical bytes, which the `tuner-determinism` CI job diffs directly.
//!
//! The reader is a minimal recursive-descent JSON parser covering the
//! subset the writer emits (the workspace builds offline, so there is no
//! serde); [`FrontierArtifact::from_json`] re-validates the format tag.

use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

use oneperc::CompilerConfig;
use oneperc_hardware::HardwareConfig;

/// Format tag of the artifact encoding; bumped on breaking change.
pub const ARTIFACT_FORMAT: &str = "oneperc-tune-frontier-v2";

/// A malformed or mismatched artifact file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactError(String);

impl ArtifactError {
    fn new(message: impl Into<String>) -> Self {
        ArtifactError(message.into())
    }
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "frontier artifact: {}", self.0)
    }
}

impl Error for ArtifactError {}

/// The serializable view of a [`CompilerConfig`]: every knob except the
/// seed (the tuner sweeps seeds; a recommended configuration is reseeded
/// by the caller via [`ConfigKnobs::to_config`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfigKnobs {
    /// RSL side length.
    pub rsl_size: usize,
    /// Photons per star-shaped resource state.
    pub resource_state_size: usize,
    /// Single-attempt fusion success probability.
    pub fusion_success_prob: f64,
    /// Photon loss rate.
    pub photon_loss_rate: f64,
    /// Target site degree.
    pub target_degree: usize,
    /// Photon lifetime in RSG cycles.
    pub photon_lifetime_cycles: usize,
    /// Virtual-hardware side.
    pub virtual_side: usize,
    /// Occupancy limit of the offline mapping.
    pub occupancy_limit: f64,
    /// Refresh period (`None` = off).
    pub refresh_period: Option<usize>,
    /// Photons fused in parallel per time-like hop.
    pub temporal_redundancy: usize,
    /// Renormalization worker threads (`0` = in-thread).
    pub renorm_workers: usize,
}

impl From<&CompilerConfig> for ConfigKnobs {
    fn from(config: &CompilerConfig) -> Self {
        ConfigKnobs {
            rsl_size: config.hardware.rsl_size,
            resource_state_size: config.hardware.resource_state_size,
            fusion_success_prob: config.hardware.fusion_success_prob,
            photon_loss_rate: config.hardware.photon_loss_rate,
            target_degree: config.hardware.target_degree,
            photon_lifetime_cycles: config.hardware.photon_lifetime_cycles,
            virtual_side: config.virtual_side,
            occupancy_limit: config.occupancy_limit,
            refresh_period: config.refresh_period,
            temporal_redundancy: config.temporal_redundancy,
            renorm_workers: config.renorm_workers,
        }
    }
}

impl ConfigKnobs {
    /// Rebuilds the [`CompilerConfig`] these knobs describe, with the
    /// caller's seed.
    pub fn to_config(&self, seed: u64) -> CompilerConfig {
        let hardware = HardwareConfig {
            rsl_size: self.rsl_size,
            resource_state_size: self.resource_state_size,
            fusion_success_prob: self.fusion_success_prob,
            photon_loss_rate: self.photon_loss_rate,
            target_degree: self.target_degree,
            photon_lifetime_cycles: self.photon_lifetime_cycles,
        };
        let mut config = CompilerConfig::new(hardware, self.virtual_side, seed);
        config.occupancy_limit = self.occupancy_limit;
        config.temporal_redundancy = self.temporal_redundancy;
        config
            .with_refresh_period(self.refresh_period)
            .with_renorm_workers(self.renorm_workers)
    }
}

/// One surviving frontier point.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierPoint {
    /// The point's configuration knobs.
    pub config: ConfigKnobs,
    /// The configuration's [`CompilerConfig::fingerprint`].
    pub fingerprint: u64,
    /// The cost vector (axes named by [`FrontierArtifact::objectives`]).
    pub cost: Vec<f64>,
    /// Fraction of swept seeds that completed.
    pub success_probability: f64,
    /// Seeds that completed every logical layer.
    pub complete_runs: usize,
    /// Seeds swept.
    pub total_runs: usize,
}

/// One successive-halving rung of the refinement stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RungSummary {
    /// 1-based rung index.
    pub rung: usize,
    /// Seeds each surviving candidate was re-evaluated on.
    pub seeds: usize,
    /// Candidates entering the rung.
    pub candidates: usize,
}

/// The tuner's serialized output: the exhaustive Pareto frontier, the
/// refinement recommendation, and the cache-key material needed to decide
/// whether a stored artifact still answers a [`Tuner::tune`] call.
///
/// [`Tuner::tune`]: crate::Tuner::tune
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierArtifact {
    /// Structural hash of the tuned circuit.
    pub circuit_hash: u64,
    /// Full cache key (circuit + lattice + seeds + cost model + refinement
    /// settings); see [`Tuner::tune_key`](crate::Tuner::tune_key).
    pub tune_key: u64,
    /// [`ConfigLattice::fingerprint`](crate::ConfigLattice::fingerprint)
    /// of the swept lattice.
    pub lattice_fingerprint: u64,
    /// [`CostModel::fingerprint`](crate::CostModel::fingerprint) of the
    /// scoring model.
    pub cost_model_fingerprint: u64,
    /// The seeds swept per lattice point, in sweep order.
    pub seeds: Vec<u64>,
    /// Objective axis names, in cost-vector order.
    pub objectives: Vec<String>,
    /// The Pareto frontier, in canonical order (lexicographic by cost,
    /// ties by fingerprint).
    pub frontier: Vec<FrontierPoint>,
    /// The successive-halving winner among the frontier members.
    pub recommended: ConfigKnobs,
    /// Refinement rungs, in execution order (empty when the frontier had
    /// a single member or refinement was disabled).
    pub rungs: Vec<RungSummary>,
}

impl FrontierArtifact {
    /// The artifact file name for a circuit hash (keyed by circuit, not by
    /// full tune key: one frontier per circuit per directory, replaced
    /// when the tuning question changes).
    pub fn file_name(circuit_hash: u64) -> String {
        format!("tune-{circuit_hash:016x}.json")
    }

    /// Serializes to canonical JSON (see the module docs for why the form
    /// is fixed).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        write_str(&mut out, 1, "format", ARTIFACT_FORMAT, true);
        write_hex(&mut out, 1, "circuit_hash", self.circuit_hash, true);
        write_hex(&mut out, 1, "tune_key", self.tune_key, true);
        write_hex(&mut out, 1, "lattice_fingerprint", self.lattice_fingerprint, true);
        write_hex(&mut out, 1, "cost_model_fingerprint", self.cost_model_fingerprint, true);
        indent(&mut out, 1);
        out.push_str("\"seeds\": [");
        for (i, seed) in self.seeds.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{seed}");
        }
        out.push_str("],\n");
        indent(&mut out, 1);
        out.push_str("\"objectives\": [");
        for (i, name) in self.objectives.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            push_json_string(&mut out, name);
        }
        out.push_str("],\n");
        indent(&mut out, 1);
        out.push_str("\"frontier\": [");
        for (i, point) in self.frontier.iter().enumerate() {
            out.push_str(if i > 0 { ",\n" } else { "\n" });
            write_point(&mut out, 2, point);
        }
        if self.frontier.is_empty() {
            out.push_str("],\n");
        } else {
            out.push('\n');
            indent(&mut out, 1);
            out.push_str("],\n");
        }
        indent(&mut out, 1);
        out.push_str("\"recommended\": ");
        write_knobs(&mut out, 1, &self.recommended);
        out.push_str(",\n");
        indent(&mut out, 1);
        out.push_str("\"rungs\": [");
        for (i, rung) in self.rungs.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"rung\": {}, \"seeds\": {}, \"candidates\": {}}}",
                rung.rung, rung.seeds, rung.candidates
            );
        }
        out.push_str("]\n");
        out.push_str("}\n");
        out
    }

    /// Parses an artifact back from its canonical JSON.
    pub fn from_json(text: &str) -> Result<Self, ArtifactError> {
        let value = Json::parse(text)?;
        let obj = value.as_obj("artifact root")?;
        let format = get(obj, "format")?.as_str("format")?;
        if format != ARTIFACT_FORMAT {
            return Err(ArtifactError::new(format!(
                "format {format:?} is not {ARTIFACT_FORMAT:?}"
            )));
        }
        let seeds = get(obj, "seeds")?
            .as_arr("seeds")?
            .iter()
            .map(|v| v.as_u64("seed"))
            .collect::<Result<Vec<_>, _>>()?;
        let objectives = get(obj, "objectives")?
            .as_arr("objectives")?
            .iter()
            .map(|v| v.as_str("objective").map(String::from))
            .collect::<Result<Vec<_>, _>>()?;
        let frontier = get(obj, "frontier")?
            .as_arr("frontier")?
            .iter()
            .map(parse_point)
            .collect::<Result<Vec<_>, _>>()?;
        let rungs = get(obj, "rungs")?
            .as_arr("rungs")?
            .iter()
            .map(parse_rung)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(FrontierArtifact {
            circuit_hash: get(obj, "circuit_hash")?.as_hex("circuit_hash")?,
            tune_key: get(obj, "tune_key")?.as_hex("tune_key")?,
            lattice_fingerprint: get(obj, "lattice_fingerprint")?.as_hex("lattice_fingerprint")?,
            cost_model_fingerprint: get(obj, "cost_model_fingerprint")?
                .as_hex("cost_model_fingerprint")?,
            seeds,
            objectives,
            frontier,
            recommended: parse_knobs(get(obj, "recommended")?)?,
            rungs,
        })
    }
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

/// JSON-escapes and quotes `s` (ASCII control characters via `\u00XX`).
fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Canonical float form: Rust's shortest round-trip `Display`. Finiteness
/// is asserted — NaN/∞ have no JSON encoding and no place in a cost.
fn push_f64(out: &mut String, v: f64) {
    assert!(v.is_finite(), "artifact floats must be finite, got {v}");
    let _ = write!(out, "{v}");
}

fn write_str(out: &mut String, level: usize, key: &str, value: &str, comma: bool) {
    indent(out, level);
    let _ = write!(out, "\"{key}\": ");
    push_json_string(out, value);
    out.push_str(if comma { ",\n" } else { "\n" });
}

fn write_hex(out: &mut String, level: usize, key: &str, value: u64, comma: bool) {
    indent(out, level);
    let _ = write!(out, "\"{key}\": \"0x{value:016x}\"");
    out.push_str(if comma { ",\n" } else { "\n" });
}

fn write_knobs(out: &mut String, level: usize, knobs: &ConfigKnobs) {
    out.push('{');
    let mut first = true;
    let mut field = |out: &mut String, key: &str| {
        if !first {
            out.push_str(", ");
        }
        first = false;
        let _ = write!(out, "\"{key}\": ");
    };
    field(out, "rsl_size");
    let _ = write!(out, "{}", knobs.rsl_size);
    field(out, "resource_state_size");
    let _ = write!(out, "{}", knobs.resource_state_size);
    field(out, "fusion_success_prob");
    push_f64(out, knobs.fusion_success_prob);
    field(out, "photon_loss_rate");
    push_f64(out, knobs.photon_loss_rate);
    field(out, "target_degree");
    let _ = write!(out, "{}", knobs.target_degree);
    field(out, "photon_lifetime_cycles");
    let _ = write!(out, "{}", knobs.photon_lifetime_cycles);
    field(out, "virtual_side");
    let _ = write!(out, "{}", knobs.virtual_side);
    field(out, "occupancy_limit");
    push_f64(out, knobs.occupancy_limit);
    field(out, "refresh_period");
    match knobs.refresh_period {
        None => out.push_str("null"),
        Some(p) => {
            let _ = write!(out, "{p}");
        }
    }
    field(out, "temporal_redundancy");
    let _ = write!(out, "{}", knobs.temporal_redundancy);
    field(out, "renorm_workers");
    let _ = write!(out, "{}", knobs.renorm_workers);
    out.push('}');
    let _ = level;
}

fn write_point(out: &mut String, level: usize, point: &FrontierPoint) {
    indent(out, level);
    out.push_str("{\n");
    indent(out, level + 1);
    out.push_str("\"config\": ");
    write_knobs(out, level + 1, &point.config);
    out.push_str(",\n");
    write_hex(out, level + 1, "fingerprint", point.fingerprint, true);
    indent(out, level + 1);
    out.push_str("\"cost\": [");
    for (i, c) in point.cost.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_f64(out, *c);
    }
    out.push_str("],\n");
    indent(out, level + 1);
    out.push_str("\"success_probability\": ");
    push_f64(out, point.success_probability);
    out.push_str(",\n");
    indent(out, level + 1);
    let _ = write!(out, "\"complete_runs\": {}", point.complete_runs);
    out.push_str(",\n");
    indent(out, level + 1);
    let _ = write!(out, "\"total_runs\": {}", point.total_runs);
    out.push('\n');
    indent(out, level);
    out.push('}');
}

fn parse_point(value: &Json) -> Result<FrontierPoint, ArtifactError> {
    let obj = value.as_obj("frontier point")?;
    let cost = get(obj, "cost")?
        .as_arr("cost")?
        .iter()
        .map(|v| v.as_f64("cost component"))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(FrontierPoint {
        config: parse_knobs(get(obj, "config")?)?,
        fingerprint: get(obj, "fingerprint")?.as_hex("fingerprint")?,
        cost,
        success_probability: get(obj, "success_probability")?.as_f64("success_probability")?,
        complete_runs: get(obj, "complete_runs")?.as_usize("complete_runs")?,
        total_runs: get(obj, "total_runs")?.as_usize("total_runs")?,
    })
}

fn parse_rung(value: &Json) -> Result<RungSummary, ArtifactError> {
    let obj = value.as_obj("rung")?;
    Ok(RungSummary {
        rung: get(obj, "rung")?.as_usize("rung")?,
        seeds: get(obj, "seeds")?.as_usize("seeds")?,
        candidates: get(obj, "candidates")?.as_usize("candidates")?,
    })
}

fn parse_knobs(value: &Json) -> Result<ConfigKnobs, ArtifactError> {
    let obj = value.as_obj("config knobs")?;
    let refresh = get(obj, "refresh_period")?;
    Ok(ConfigKnobs {
        rsl_size: get(obj, "rsl_size")?.as_usize("rsl_size")?,
        resource_state_size: get(obj, "resource_state_size")?.as_usize("resource_state_size")?,
        fusion_success_prob: get(obj, "fusion_success_prob")?.as_f64("fusion_success_prob")?,
        photon_loss_rate: get(obj, "photon_loss_rate")?.as_f64("photon_loss_rate")?,
        target_degree: get(obj, "target_degree")?.as_usize("target_degree")?,
        photon_lifetime_cycles: get(obj, "photon_lifetime_cycles")?
            .as_usize("photon_lifetime_cycles")?,
        virtual_side: get(obj, "virtual_side")?.as_usize("virtual_side")?,
        occupancy_limit: get(obj, "occupancy_limit")?.as_f64("occupancy_limit")?,
        refresh_period: if refresh.is_null() {
            None
        } else {
            Some(refresh.as_usize("refresh_period")?)
        },
        temporal_redundancy: get(obj, "temporal_redundancy")?.as_usize("temporal_redundancy")?,
        renorm_workers: get(obj, "renorm_workers")?.as_usize("renorm_workers")?,
    })
}

// ---------------------------------------------------------------------------
// Minimal JSON reader (the subset the writer above emits).
// ---------------------------------------------------------------------------

/// A parsed JSON value. Numbers keep their source text so 64-bit integers
/// survive exactly (an `f64` detour would corrupt hashes past 2⁵³ — which
/// is also why the writer encodes hashes as hex strings).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

fn get<'a>(obj: &'a [(String, Json)], key: &str) -> Result<&'a Json, ArtifactError> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| ArtifactError::new(format!("missing key {key:?}")))
}

impl Json {
    fn parse(text: &str) -> Result<Json, ArtifactError> {
        let mut parser = Parser { bytes: text.as_bytes(), pos: 0 };
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(ArtifactError::new("trailing data after JSON value"));
        }
        Ok(value)
    }

    fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    fn as_obj(&self, what: &str) -> Result<&[(String, Json)], ArtifactError> {
        match self {
            Json::Obj(fields) => Ok(fields),
            _ => Err(ArtifactError::new(format!("{what} is not an object"))),
        }
    }

    fn as_arr(&self, what: &str) -> Result<&[Json], ArtifactError> {
        match self {
            Json::Arr(items) => Ok(items),
            _ => Err(ArtifactError::new(format!("{what} is not an array"))),
        }
    }

    fn as_str(&self, what: &str) -> Result<&str, ArtifactError> {
        match self {
            Json::Str(s) => Ok(s),
            _ => Err(ArtifactError::new(format!("{what} is not a string"))),
        }
    }

    fn as_u64(&self, what: &str) -> Result<u64, ArtifactError> {
        match self {
            Json::Num(raw) => raw
                .parse()
                .map_err(|_| ArtifactError::new(format!("{what} is not a u64: {raw}"))),
            _ => Err(ArtifactError::new(format!("{what} is not a number"))),
        }
    }

    fn as_usize(&self, what: &str) -> Result<usize, ArtifactError> {
        match self {
            Json::Num(raw) => raw
                .parse()
                .map_err(|_| ArtifactError::new(format!("{what} is not a usize: {raw}"))),
            _ => Err(ArtifactError::new(format!("{what} is not a number"))),
        }
    }

    fn as_f64(&self, what: &str) -> Result<f64, ArtifactError> {
        match self {
            Json::Num(raw) => raw
                .parse()
                .map_err(|_| ArtifactError::new(format!("{what} is not a float: {raw}"))),
            _ => Err(ArtifactError::new(format!("{what} is not a number"))),
        }
    }

    fn as_hex(&self, what: &str) -> Result<u64, ArtifactError> {
        let s = self.as_str(what)?;
        let digits = s
            .strip_prefix("0x")
            .ok_or_else(|| ArtifactError::new(format!("{what} is not a 0x hex string: {s}")))?;
        u64::from_str_radix(digits, 16)
            .map_err(|_| ArtifactError::new(format!("{what} is not a hex u64: {s}")))
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Result<u8, ArtifactError> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| ArtifactError::new("unexpected end of input"))
    }

    fn expect(&mut self, b: u8) -> Result<(), ArtifactError> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(ArtifactError::new(format!(
                "expected {:?} at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_literal(&mut self, literal: &str, value: Json) -> Result<Json, ArtifactError> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(ArtifactError::new(format!("expected {literal:?} at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Json, ArtifactError> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.eat_literal("true", Json::Bool(true)),
            b'f' => self.eat_literal("false", Json::Bool(false)),
            b'n' => self.eat_literal("null", Json::Null),
            _ => self.number(),
        }
    }

    fn object(&mut self) -> Result<Json, ArtifactError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => {
                    return Err(ArtifactError::new(format!(
                        "expected ',' or '}}' in object, got {:?}",
                        other as char
                    )))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, ArtifactError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => {
                    return Err(ArtifactError::new(format!(
                        "expected ',' or ']' in array, got {:?}",
                        other as char
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, ArtifactError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Advance over the plain (unescaped, non-terminator) run.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| ArtifactError::new("invalid UTF-8 in string"))?,
            );
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self
                        .bytes
                        .get(self.pos)
                        .copied()
                        .ok_or_else(|| ArtifactError::new("unterminated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| ArtifactError::new("truncated \\u escape"))?;
                            self.pos += 4;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| ArtifactError::new("malformed \\u escape"))?;
                            // Surrogate pairs are out of scope: the writer
                            // only \u-escapes ASCII control characters.
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| ArtifactError::new("invalid \\u code point"))?,
                            );
                        }
                        other => {
                            return Err(ArtifactError::new(format!(
                                "unknown escape \\{}",
                                other as char
                            )))
                        }
                    }
                }
                _ => return Err(ArtifactError::new("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, ArtifactError> {
        self.skip_ws();
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if start == self.pos {
            return Err(ArtifactError::new(format!("expected a number at byte {start}")));
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| ArtifactError::new("invalid UTF-8 in number"))?;
        // Validate now so `as_f64` can only fail on *type* mismatches.
        raw.parse::<f64>()
            .map_err(|_| ArtifactError::new(format!("malformed number {raw:?}")))?;
        Ok(Json::Num(raw.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn knobs() -> ConfigKnobs {
        ConfigKnobs::from(&CompilerConfig::for_qubits(4, 0.9, 1))
    }

    fn artifact() -> FrontierArtifact {
        FrontierArtifact {
            circuit_hash: 0xdead_beef_0123_4567,
            tune_key: 42,
            lattice_fingerprint: u64::MAX,
            cost_model_fingerprint: 7,
            seeds: vec![1, 2, 3],
            objectives: vec!["latency".into(), "volume".into()],
            frontier: vec![FrontierPoint {
                config: knobs(),
                fingerprint: 0x0123_4567_89ab_cdef,
                cost: vec![3.5, 1024.0],
                success_probability: 0.75,
                complete_runs: 3,
                total_runs: 4,
            }],
            recommended: knobs(),
            rungs: vec![RungSummary { rung: 1, seeds: 6, candidates: 2 }],
        }
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let original = artifact();
        let json = original.to_json();
        let parsed = FrontierArtifact::from_json(&json).expect("round trip parses");
        assert_eq!(parsed, original);
        assert_eq!(parsed.to_json(), json, "re-serialization is byte-identical");
    }

    #[test]
    fn knobs_round_trip_through_config() {
        let config = CompilerConfig::for_sensitivity(36, 3, 0.8, 9)
            .with_refresh_period(Some(5))
            .with_renorm_workers(2);
        let rebuilt = ConfigKnobs::from(&config).to_config(9);
        assert_eq!(rebuilt, config);
        assert_eq!(rebuilt.fingerprint(), config.fingerprint());
    }

    #[test]
    fn empty_frontier_serializes() {
        let mut a = artifact();
        a.frontier.clear();
        a.rungs.clear();
        let parsed = FrontierArtifact::from_json(&a.to_json()).expect("parses");
        assert!(parsed.frontier.is_empty());
        assert!(parsed.rungs.is_empty());
    }

    #[test]
    fn hashes_survive_past_f64_precision() {
        // 2^53 + 1 is not representable as f64; hex strings keep it exact.
        let mut a = artifact();
        a.circuit_hash = (1 << 53) + 1;
        let parsed = FrontierArtifact::from_json(&a.to_json()).expect("parses");
        assert_eq!(parsed.circuit_hash, (1 << 53) + 1);
    }

    #[test]
    fn format_tag_is_enforced() {
        // A v1 artifact still carries the retired `pipelined` knob.
        let json = artifact().to_json().replace("frontier-v2", "frontier-v1");
        let err = FrontierArtifact::from_json(&json).unwrap_err();
        assert!(err.to_string().contains("format"));
    }

    #[test]
    fn malformed_inputs_error_cleanly() {
        for bad in ["", "{", "{\"format\": }", "nope", "{\"a\": 1} trailing", "[1, 2"] {
            assert!(FrontierArtifact::from_json(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn file_name_is_stable() {
        assert_eq!(FrontierArtifact::file_name(0xab), "tune-00000000000000ab.json");
    }
}
