//! The fleet wire protocol: line-delimited JSON over any byte stream.
//!
//! Every frame is exactly one line holding one JSON object with a `"kind"`
//! discriminator. Encoding rides the deterministic
//! [`margins_trace::json`] layer — sorted object keys, raw number tokens,
//! no whitespace — so a [`Request`]/[`Response`] value has exactly one
//! wire representation and round-trips losslessly.
//!
//! Decoding is total: malformed JSON, wrong shapes, missing or mistyped
//! fields, and unknown `kind`s all map to a typed [`ProtoError`] — the
//! daemon never panics on untrusted bytes, and unknown kinds are rejected
//! with the protocol version attached so old clients can diagnose a skew.
//!
//! Every frame is declared once, inside `wire_frames! { … }`: a variant
//! names its wire token and its typed fields, and the declaration
//! generates the enum, its token accessor, its encoder and its decoder.
//! The per-type work lives in one `WireField` impl per field type.

use margins_core::config::{CampaignConfig, ConfigError};
use margins_core::search::SearchStrategy;
use margins_sim::topology::NUM_CORES;
use margins_sim::{ChipSpec, CoreId, Corner, Millivolts};
use margins_trace::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt;

/// The wire protocol version spoken by this build. Carried on every
/// [`Response::Error`] frame so version-skewed peers can tell a typo from
/// a protocol gap.
///
/// Version 2 added the observability plane: `subscribe`/`unsubscribe`/
/// `health`/`metrics` requests, server-pushed `event` frames
/// ([`FleetEvent`]), queue position and progress on `status`, and
/// partial-results accounting on `cancelled`.
pub const PROTO_VERSION: u32 = 2;

/// Largest chip count a single submit may request. Far above "thousands
/// of simulated chips"; the bound turns an absurd request into a typed
/// rejection instead of an allocation storm.
pub const MAX_CHIPS: u32 = 65_536;

/// Largest request frame the daemon reads, in bytes, not counting its
/// newline. A longer line is answered with a `frame-too-large` error
/// frame and the connection is closed, so a peer streaming bytes with no
/// newline cannot grow the daemon's read buffer without bound.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// What one fleet characterization request sweeps: a contiguous serial
/// range of chips at one process corner, all running the same campaign
/// grid on the PMD rail.
///
/// Canonical chip order is ascending serial — the order results are
/// merged in, independent of any scheduling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetSpec {
    /// Process corner every chip in the fleet was fabbed at.
    pub corner: Corner,
    /// Serial number of the first chip.
    pub first_serial: u64,
    /// Number of chips (serials `first_serial..first_serial + chips`).
    pub chips: u32,
    /// Benchmark names of the campaign grid.
    pub benchmarks: Vec<String>,
    /// Target core indices.
    pub cores: Vec<u8>,
    /// Iterations per voltage step.
    pub iterations: u32,
    /// Sweep start voltage, millivolts.
    pub start_mv: u32,
    /// Sweep floor voltage, millivolts.
    pub floor_mv: u32,
    /// Campaign seed.
    pub seed: u64,
    /// Vmin search strategy.
    pub search: SearchStrategy,
}

impl FleetSpec {
    /// The fleet's chips in canonical order (ascending serial).
    #[must_use]
    pub fn chip_specs(&self) -> Vec<ChipSpec> {
        (0..u64::from(self.chips))
            .map(|i| ChipSpec::new(self.corner, self.first_serial + i))
            .collect()
    }

    /// Validates the spec into the campaign configuration every chip runs.
    ///
    /// # Errors
    ///
    /// [`SpecError::NoChips`]/[`SpecError::TooManyChips`] for a bad fleet
    /// shape, [`SpecError::BadCore`] for an out-of-range core, and
    /// [`SpecError::Config`] when the campaign grid itself is invalid.
    pub fn campaign_config(&self) -> Result<CampaignConfig, SpecError> {
        if self.chips == 0 {
            return Err(SpecError::NoChips);
        }
        if self.chips > MAX_CHIPS {
            return Err(SpecError::TooManyChips {
                requested: self.chips,
                max: MAX_CHIPS,
            });
        }
        let cores = self
            .cores
            .iter()
            .map(|&i| {
                if usize::from(i) < NUM_CORES {
                    Ok(CoreId::new(i))
                } else {
                    Err(SpecError::BadCore { core: i })
                }
            })
            .collect::<Result<Vec<CoreId>, SpecError>>()?;
        CampaignConfig::builder()
            .benchmarks(self.benchmarks.clone())
            .cores(cores)
            .iterations(self.iterations)
            .start_voltage(Millivolts::new(self.start_mv))
            .floor_voltage(Millivolts::new(self.floor_mv))
            .seed(self.seed)
            .search(self.search)
            .build()
            .map_err(SpecError::Config)
    }
}

/// A fleet spec that cannot be turned into campaigns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The fleet has zero chips.
    NoChips,
    /// The fleet exceeds [`MAX_CHIPS`].
    TooManyChips {
        /// Chips requested.
        requested: u32,
        /// The supported maximum.
        max: u32,
    },
    /// A core index beyond the simulated topology.
    BadCore {
        /// The offending index.
        core: u8,
    },
    /// The campaign grid is invalid.
    Config(ConfigError),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::NoChips => f.write_str("fleet needs at least one chip"),
            SpecError::TooManyChips { requested, max } => {
                write!(f, "fleet of {requested} chips exceeds the maximum of {max}")
            }
            SpecError::BadCore { core } => {
                write!(f, "core {core} is outside the simulated topology")
            }
            SpecError::Config(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// Declares wire frames once and generates their codecs.
///
/// An `enum` names its discriminator field (`by kind`, `by what`); each
/// variant names its wire token and is a unit variant, a braced variant
/// of [`WireField`]s, or a one-element tuple variant whose [`WireObject`]
/// payload is flattened into the frame. An optional trailing
/// `_ => Variant { token: String }` keeps unknown tokens; without it an
/// unknown token is [`ProtoError::UnknownKind`]. A `struct` declares a
/// flattened payload.
///
/// Per item the macro emits the type, the token accessor named after the
/// discriminator, and a [`WireObject`] impl whose decoder reads the
/// fields in declaration order — so the first field reported missing or
/// bad is the first declared. The codec logic itself lives in the plain
/// functions below, which `margins-lint` (skipping `macro_rules!`
/// bodies) still checks.
macro_rules! wire_frames {
    () => {};
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident by $tag:ident {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $token:literal
                $({ $($(#[$fmeta:meta])* $field:ident: $ty:ty),* $(,)? })?
                $(($flat:ty))?
            ),* $(,)?
            $(
                _ => $(#[$umeta:meta])*
                $unknown:ident { $(#[$ufmeta:meta])* $ufield:ident: String $(,)? } $(,)?
            )?
        }
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $(
                $(#[$vmeta])*
                $variant $({ $($(#[$fmeta])* $field: $ty,)* })? $(($flat))?,
            )*
            $(
                $(#[$umeta])*
                $unknown { $(#[$ufmeta])* $ufield: String },
            )?
        }

        impl $name {
            #[doc = concat!("The `", stringify!($tag), "` discriminator token on the wire.")]
            #[must_use]
            pub fn $tag(&self) -> &str {
                match self {
                    $(Self::$variant { .. } => $token,)*
                    $(Self::$unknown { $ufield } => $ufield,)?
                }
            }
        }

        impl WireObject for $name {
            fn put_fields(&self, map: &mut Fields) {
                put_token(map, stringify!($tag), self.$tag());
                match self {
                    $(
                        $(Self::$variant { $($field),* } => {
                            $(WireField::put($field, map, stringify!($field));)*
                        })?
                        $(Self::$variant(flat) => <$flat as WireObject>::put_fields(flat, map),)?
                    )*
                    // Unit variants and the catch-all carry only the token.
                    #[allow(unreachable_patterns)]
                    _ => {}
                }
            }

            fn take_fields(map: &Fields) -> Result<Self, ProtoError> {
                let token = String::take(map, stringify!($tag))?;
                Ok(match token.as_str() {
                    $($token => Self::$variant
                        $({ $($field: WireField::take(map, stringify!($field))?,)* })?
                        $((<$flat as WireObject>::take_fields(map)?))?,)*
                    $(_ => Self::$unknown { $ufield: token },)?
                    #[allow(unreachable_patterns)]
                    _ => return Err(unknown_kind(&token)),
                })
            }
        }

        wire_frames! { $($rest)* }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$fmeta:meta])* $fvis:vis $field:ident: $ty:ty),* $(,)?
        }
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $ty,)*
        }

        impl WireObject for $name {
            fn put_fields(&self, map: &mut Fields) {
                $(WireField::put(&self.$field, map, stringify!($field));)*
            }

            fn take_fields(map: &Fields) -> Result<Self, ProtoError> {
                Ok(Self {
                    $($field: WireField::take(map, stringify!($field))?,)*
                })
            }
        }

        wire_frames! { $($rest)* }
    };
}

wire_frames! {
    /// One client→daemon frame.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Request by kind {
        /// Submit a fleet for characterization.
        Submit = "submit" {
            /// Client name owning the resulting job and its streams.
            client: String,
            /// What to characterize.
            spec: FleetSpec,
        },
        /// Ask for a job's progress.
        Status = "status" {
            /// Owning client.
            client: String,
            /// Job id from [`Response::Submitted`].
            job: u64,
        },
        /// Cancel a job's queued chips.
        Cancel = "cancel" {
            /// Owning client.
            client: String,
            /// Job id.
            job: u64,
        },
        /// Block until a job completes and fetch its merged streams.
        Results = "results" {
            /// Owning client.
            client: String,
            /// Job id.
            job: u64,
        },
        /// Start streaming a job's live event frames over this connection.
        Subscribe = "subscribe" {
            /// Owning client.
            client: String,
            /// Job id.
            job: u64,
        },
        /// Stop streaming a job's event frames over this connection.
        Unsubscribe = "unsubscribe" {
            /// Owning client.
            client: String,
            /// Job id.
            job: u64,
        },
        /// Ask for a daemon liveness snapshot (runtime gauges).
        Health = "health",
        /// Ask for the daemon's OpenMetrics text exposition.
        Metrics = "metrics",
        /// Stop the daemon after in-flight chips finish.
        Shutdown = "shutdown",
    }

    /// A point-in-time snapshot of the daemon's runtime gauges, answered to
    /// [`Request::Health`]. Every field is a *gauge* — it reflects scheduling
    /// luck at the instant of the request and is deliberately kept out of the
    /// deterministic counter section of the metrics exposition.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct HealthSnapshot {
        /// Configured scheduler worker threads.
        pub workers: u32,
        /// Workers currently characterizing a chip.
        pub busy: u32,
        /// Chip units waiting in per-client queues.
        pub queued_units: u64,
        /// Jobs admitted but not yet dispatched.
        pub jobs_queued: u32,
        /// Jobs with at least one dispatched chip and work remaining.
        pub jobs_running: u32,
        /// Jobs whose every chip completed.
        pub jobs_done: u32,
        /// Jobs cancelled before completing.
        pub jobs_cancelled: u32,
        /// Jobs that failed with an executor error.
        pub jobs_failed: u32,
        /// Live event subscriptions.
        pub subscribers: u32,
    }

    /// One server-pushed telemetry frame (`"kind":"event"` on the wire, with
    /// a `"what"` sub-discriminator).
    ///
    /// Event payloads are derived from the same deterministic `TraceEvent`
    /// stream the job's artifacts are built from: every
    /// [`FleetEvent::ChipFinished`] carries that chip's complete sealed JSONL
    /// stream, so a fully received subscription re-sealed through
    /// `merge_streams` in ascending chip order is byte-identical to the job's
    /// merged trace artifact.
    ///
    /// Unknown `what` tokens decode to [`FleetEvent::Unknown`] rather than a
    /// [`ProtoError`]: a version-aware client skips event kinds it does not
    /// speak while still hard-rejecting unknown top-level frame kinds.
    #[derive(Debug, Clone, PartialEq)]
    pub enum FleetEvent by what {
        /// A job was admitted to the scheduler.
        JobQueued = "job-queued" {
            /// Job id.
            job: u64,
            /// Owning client.
            client: String,
            /// Chips the job will characterize.
            chips: u32,
        },
        /// The first chip of a job was dispatched to a worker.
        JobStarted = "job-started" {
            /// Job id.
            job: u64,
        },
        /// A chip was dispatched to a worker.
        ChipStarted = "chip-started" {
            /// Job id.
            job: u64,
            /// Canonical chip index within the job.
            chip: u32,
            /// Chip identity, e.g. `TTT#40`.
            chip_id: String,
        },
        /// A (benchmark, core) sweep of a chip finished.
        SweepProgress = "sweep-progress" {
            /// Job id.
            job: u64,
            /// Canonical chip index within the job.
            chip: u32,
            /// Benchmark name.
            program: String,
            /// Input dataset label.
            dataset: String,
            /// Target core index.
            core: u8,
            /// Classified runs the sweep produced.
            runs: u64,
        },
        /// A chip completed; carries the chip's sealed per-chip trace.
        ChipFinished = "chip-finished" {
            /// Job id.
            job: u64,
            /// Canonical chip index within the job.
            chip: u32,
            /// Chip identity, e.g. `TTT#40`.
            chip_id: String,
            /// Classified runs on this chip.
            runs: u64,
            /// Watchdog power cycles on this chip.
            power_cycles: u64,
            /// The chip's binding Vmin (max over its sweeps), absent when
            /// even the highest probed step misbehaved (censored).
            vmin_mv: Option<u32>,
            /// Sum of per-run severity contributions on this chip.
            severity_sum: f64,
            /// Campaign-cache lookups that hit.
            cache_hits: u64,
            /// Campaign-cache lookups issued.
            cache_lookups: u64,
            /// The chip's own sealed margins-trace JSONL stream.
            trace: String,
        },
        /// Every chip of a job completed.
        JobFinished = "job-finished" {
            /// Job id.
            job: u64,
            /// Chips characterized.
            chips: u32,
            /// Classified runs over the whole job.
            runs: u64,
            /// Watchdog power cycles over the whole job.
            power_cycles: u64,
        },
        /// A job was cancelled; `done` of `total` chips had completed.
        JobCancelled = "job-cancelled" {
            /// Job id.
            job: u64,
            /// Chips that completed before the cancel.
            done: u32,
            /// Chips total.
            total: u32,
        },
        /// A job failed with an executor error.
        JobFailed = "job-failed" {
            /// Job id.
            job: u64,
            /// The error rendered for operators.
            message: String,
        },
        /// The subscriber's bounded queue overflowed; `dropped` events were
        /// discarded since the last delivered frame.
        Lagged = "lagged" {
            /// Job id.
            job: u64,
            /// Exact count of dropped events.
            dropped: u64,
        },
        _ =>
            /// An event kind this protocol version does not speak; skipped by
            /// version-aware clients.
            Unknown {
                /// The unrecognized `what` token.
                what: String,
            },
    }

    /// One daemon→client frame.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Response by kind {
        /// A submit was accepted.
        Submitted = "submitted" {
            /// The job id for follow-up requests.
            job: u64,
            /// Chips the job will characterize.
            chips: u32,
        },
        /// A job's progress.
        Status = "status" {
            /// Job id.
            job: u64,
            /// `"queued"`, `"running"`, `"done"`, `"failed"` or
            /// `"cancelled"`.
            state: String,
            /// Chips completed.
            done: u32,
            /// Chips total.
            total: u32,
            /// Chip units ahead of this job's first pending unit in its
            /// client's FIFO queue (0 when nothing of the job is queued).
            queue_position: u32,
            /// Completion fraction, `done / total`.
            progress: f64,
        },
        /// A cancel took effect; `done` of `total` chips had completed and
        /// their partial results are retained with the job.
        Cancelled = "cancelled" {
            /// Job id.
            job: u64,
            /// Chips that completed before the cancel.
            done: u32,
            /// Chips total.
            total: u32,
        },
        /// A subscription started; `event` frames for the job follow on this
        /// connection.
        Subscribed = "subscribed" {
            /// Job id.
            job: u64,
        },
        /// A subscription ended; no further `event` frames for the job will
        /// be pushed on this connection.
        Unsubscribed = "unsubscribed" {
            /// Job id.
            job: u64,
        },
        /// The daemon's runtime gauges.
        Health = "health" (HealthSnapshot),
        /// The daemon's OpenMetrics text exposition.
        Metrics = "metrics" {
            /// The exposition body (ends with `# EOF`).
            body: String,
        },
        /// A server-pushed telemetry frame for a subscribed job.
        Event = "event" (FleetEvent),
        /// A completed job's merged deterministic outputs.
        Results = "results" {
            /// Job id.
            job: u64,
            /// Chips characterized.
            chips: u32,
            /// Classified runs over the whole fleet.
            runs: u64,
            /// Watchdog power cycles over the whole fleet.
            power_cycles: u64,
            /// Kernel ops executed on simulated boards — 0 for a fully warm
            /// cache replay.
            executed_ops: u64,
            /// The merged margins-trace JSONL stream (canonical chip order).
            trace: String,
            /// The OpenMetrics exposition of the merged stream.
            metrics: String,
        },
        /// The daemon acknowledged a shutdown.
        Bye = "bye",
        /// A request was rejected.
        Error = "error" {
            /// Protocol version of the daemon ([`PROTO_VERSION`]).
            proto: u32,
            /// Stable machine-readable code (see [`ProtoError::code`] and the
            /// daemon's own codes).
            code: String,
            /// Human-readable detail.
            message: String,
        },
    }
}

impl FleetEvent {
    /// The job the event belongs to; `None` for [`FleetEvent::Unknown`].
    #[must_use]
    pub fn job(&self) -> Option<u64> {
        match self {
            FleetEvent::JobQueued { job, .. }
            | FleetEvent::JobStarted { job }
            | FleetEvent::ChipStarted { job, .. }
            | FleetEvent::SweepProgress { job, .. }
            | FleetEvent::ChipFinished { job, .. }
            | FleetEvent::JobFinished { job, .. }
            | FleetEvent::JobCancelled { job, .. }
            | FleetEvent::JobFailed { job, .. }
            | FleetEvent::Lagged { job, .. } => Some(*job),
            FleetEvent::Unknown { .. } => None,
        }
    }
}

impl Request {
    /// Encodes the request as its single wire line (no trailing newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        encode(self)
    }

    /// Decodes one wire line.
    ///
    /// # Errors
    ///
    /// A typed [`ProtoError`] for anything other than a well-formed frame
    /// of a known kind; never panics on untrusted bytes.
    pub fn parse_line(line: &str) -> Result<Request, ProtoError> {
        decode(line)
    }
}

impl Response {
    /// Encodes the response as its single wire line (no trailing newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        encode(self)
    }

    /// Decodes one wire line.
    ///
    /// # Errors
    ///
    /// A typed [`ProtoError`]; never panics on untrusted bytes.
    pub fn parse_line(line: &str) -> Result<Response, ProtoError> {
        decode(line)
    }
}

/// A frame that failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The line is not valid JSON (truncated frames land here).
    Malformed {
        /// The JSON reader's message.
        message: String,
    },
    /// The line parsed but is not a JSON object.
    NotAnObject,
    /// A required field is absent.
    MissingField {
        /// The field name.
        field: String,
    },
    /// A field holds the wrong type or an invalid value.
    BadField {
        /// The field name.
        field: String,
        /// What was wrong.
        message: String,
    },
    /// The `kind` discriminator names no request/response this protocol
    /// version knows.
    UnknownKind {
        /// The offending discriminator.
        kind: String,
        /// The speaker's protocol version.
        proto: u32,
    },
}

impl ProtoError {
    /// The stable machine-readable code for [`Response::Error`] frames.
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            ProtoError::Malformed { .. } => "malformed",
            ProtoError::NotAnObject => "not-an-object",
            ProtoError::MissingField { .. } => "missing-field",
            ProtoError::BadField { .. } => "bad-field",
            ProtoError::UnknownKind { .. } => "unknown-kind",
        }
    }

    /// The [`Response::Error`] frame rejecting this decode failure.
    #[must_use]
    pub fn to_response(&self) -> Response {
        Response::Error {
            proto: PROTO_VERSION,
            code: self.code().to_owned(),
            message: self.to_string(),
        }
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Malformed { message } => write!(f, "malformed frame: {message}"),
            ProtoError::NotAnObject => f.write_str("frame is not a JSON object"),
            ProtoError::MissingField { field } => write!(f, "missing field '{field}'"),
            ProtoError::BadField { field, message } => {
                write!(f, "bad field '{field}': {message}")
            }
            ProtoError::UnknownKind { kind, proto } => {
                write!(f, "unknown kind '{kind}' (protocol version {proto})")
            }
        }
    }
}

impl std::error::Error for ProtoError {}

/// The lowercase wire token of a corner.
#[must_use]
pub fn corner_token(corner: Corner) -> &'static str {
    match corner {
        Corner::Ttt => "ttt",
        Corner::Tff => "tff",
        Corner::Tss => "tss",
    }
}

/// Parses a corner wire token.
#[must_use]
pub fn parse_corner(token: &str) -> Option<Corner> {
    match token {
        "ttt" => Some(Corner::Ttt),
        "tff" => Some(Corner::Tff),
        "tss" => Some(Corner::Tss),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// The codec behind `wire_frames!`
// ---------------------------------------------------------------------

/// A frame's JSON object: field name to value, in canonical key order.
type Fields = BTreeMap<String, Value>;

/// A value that encodes as the fields of one JSON object: a whole frame,
/// or a payload flattened into its frame.
trait WireObject: Sized {
    /// Writes every field, an enum's discriminator token included.
    fn put_fields(&self, map: &mut Fields);

    /// Reads every field back, in declaration order.
    fn take_fields(map: &Fields) -> Result<Self, ProtoError>;
}

/// One typed field of a frame.
trait WireField: Sized {
    /// Writes the value under `name`; an absent optional writes nothing.
    fn put(&self, map: &mut Fields, name: &str);

    /// Reads the field `name`.
    fn take(map: &Fields, name: &str) -> Result<Self, ProtoError>;
}

fn encode(frame: &impl WireObject) -> String {
    let mut map = Fields::new();
    frame.put_fields(&mut map);
    json::render(&Value::Object(map))
}

fn decode<T: WireObject>(line: &str) -> Result<T, ProtoError> {
    let value = json::parse(line.trim_end_matches(['\r', '\n']))
        .map_err(|message| ProtoError::Malformed { message })?;
    match value {
        Value::Object(map) => T::take_fields(&map),
        _ => Err(ProtoError::NotAnObject),
    }
}

fn unknown_kind(kind: &str) -> ProtoError {
    ProtoError::UnknownKind {
        kind: kind.to_owned(),
        proto: PROTO_VERSION,
    }
}

fn put_token(map: &mut Fields, name: &str, token: &str) {
    map.insert(name.to_owned(), Value::from_str_val(token));
}

fn field<'a>(map: &'a Fields, name: &str) -> Result<&'a Value, ProtoError> {
    map.get(name).ok_or_else(|| ProtoError::MissingField {
        field: name.to_owned(),
    })
}

fn bad(name: &str, message: impl Into<String>) -> ProtoError {
    ProtoError::BadField {
        field: name.to_owned(),
        message: message.into(),
    }
}

/// An unsigned field read as `u64`, then narrowed to `bits` wide.
fn narrow<T: TryFrom<u64>>(map: &Fields, name: &str, bits: u32) -> Result<T, ProtoError> {
    let wide = u64::take(map, name)?;
    T::try_from(wide).map_err(|_| {
        bad(
            name,
            format!("{wide} exceeds the unsigned {bits}-bit range"),
        )
    })
}

/// An array field whose every element `item` accepts.
fn take_array<T>(
    map: &Fields,
    name: &str,
    expected: &str,
    item: impl Fn(&Value) -> Option<T>,
) -> Result<Vec<T>, ProtoError> {
    match field(map, name)? {
        Value::Array(items) => items
            .iter()
            .map(|v| item(v).ok_or_else(|| bad(name, expected)))
            .collect(),
        _ => Err(bad(name, expected)),
    }
}

impl WireField for u64 {
    fn put(&self, map: &mut Fields, name: &str) {
        map.insert(name.to_owned(), Value::from_u64(*self));
    }

    fn take(map: &Fields, name: &str) -> Result<Self, ProtoError> {
        let raw = field(map, name)?
            .as_number()
            .ok_or_else(|| bad(name, "expected an unsigned integer"))?;
        raw.parse()
            .map_err(|_| bad(name, format!("'{raw}' is not an unsigned 64-bit integer")))
    }
}

impl WireField for u32 {
    fn put(&self, map: &mut Fields, name: &str) {
        u64::from(*self).put(map, name);
    }

    fn take(map: &Fields, name: &str) -> Result<Self, ProtoError> {
        narrow(map, name, 32)
    }
}

impl WireField for u8 {
    fn put(&self, map: &mut Fields, name: &str) {
        u64::from(*self).put(map, name);
    }

    fn take(map: &Fields, name: &str) -> Result<Self, ProtoError> {
        narrow(map, name, 8)
    }
}

impl WireField for f64 {
    fn put(&self, map: &mut Fields, name: &str) {
        map.insert(name.to_owned(), Value::from_f64(*self));
    }

    fn take(map: &Fields, name: &str) -> Result<Self, ProtoError> {
        let raw = field(map, name)?
            .as_number()
            .ok_or_else(|| bad(name, "expected a number"))?;
        let value = raw
            .parse::<f64>()
            .map_err(|_| bad(name, format!("'{raw}' is not a number")))?;
        if value.is_finite() {
            Ok(value)
        } else {
            Err(bad(name, format!("'{raw}' is not finite")))
        }
    }
}

impl WireField for String {
    fn put(&self, map: &mut Fields, name: &str) {
        put_token(map, name, self);
    }

    fn take(map: &Fields, name: &str) -> Result<Self, ProtoError> {
        field(map, name)?
            .as_str()
            .map(str::to_owned)
            .ok_or_else(|| bad(name, "expected a string"))
    }
}

/// An optional field is encoded by omission (e.g. a censored Vmin).
impl<T: WireField> WireField for Option<T> {
    fn put(&self, map: &mut Fields, name: &str) {
        if let Some(value) = self {
            value.put(map, name);
        }
    }

    fn take(map: &Fields, name: &str) -> Result<Self, ProtoError> {
        map.contains_key(name)
            .then(|| T::take(map, name))
            .transpose()
    }
}

/// A spec travels as a nested object. Its decoder checks the tokens and
/// arrays (`corner`, `search`, `benchmarks`, `cores`) before the
/// integers, unlike declaration order, so its codec is written by hand.
impl WireField for FleetSpec {
    fn put(&self, map: &mut Fields, name: &str) {
        let mut spec = Fields::new();
        put_token(&mut spec, "corner", corner_token(self.corner));
        self.first_serial.put(&mut spec, "first_serial");
        self.chips.put(&mut spec, "chips");
        let benchmarks = self.benchmarks.iter().map(|b| Value::from_str_val(b));
        spec.insert("benchmarks".to_owned(), Value::Array(benchmarks.collect()));
        let cores = self.cores.iter().map(|&c| Value::from_u64(u64::from(c)));
        spec.insert("cores".to_owned(), Value::Array(cores.collect()));
        self.iterations.put(&mut spec, "iterations");
        self.start_mv.put(&mut spec, "start_mv");
        self.floor_mv.put(&mut spec, "floor_mv");
        self.seed.put(&mut spec, "seed");
        put_token(&mut spec, "search", self.search.name());
        map.insert(name.to_owned(), Value::Object(spec));
    }

    fn take(map: &Fields, name: &str) -> Result<Self, ProtoError> {
        let spec = field(map, name)?
            .as_object()
            .ok_or_else(|| bad(name, "expected an object"))?;
        let corner_token = String::take(spec, "corner")?;
        let corner = parse_corner(&corner_token).ok_or_else(|| {
            bad(
                "corner",
                format!("unknown corner '{corner_token}' (ttt|tff|tss)"),
            )
        })?;
        let search_token = String::take(spec, "search")?;
        let search = SearchStrategy::parse(&search_token)
            .ok_or_else(|| bad("search", format!("unknown strategy '{search_token}'")))?;
        let benchmarks = take_array(spec, "benchmarks", "expected an array of strings", |v| {
            v.as_str().map(str::to_owned)
        })?;
        let cores = take_array(spec, "cores", "expected an array of core indices", |v| {
            v.as_number().and_then(|raw| raw.parse().ok())
        })?;
        Ok(FleetSpec {
            corner,
            first_serial: WireField::take(spec, "first_serial")?,
            chips: WireField::take(spec, "chips")?,
            benchmarks,
            cores,
            iterations: WireField::take(spec, "iterations")?,
            start_mv: WireField::take(spec, "start_mv")?,
            floor_mv: WireField::take(spec, "floor_mv")?,
            seed: WireField::take(spec, "seed")?,
            search,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> FleetSpec {
        FleetSpec {
            corner: Corner::Tss,
            first_serial: 40,
            chips: 3,
            benchmarks: vec!["namd".into(), "mcf".into()],
            cores: vec![0, 4],
            iterations: 2,
            start_mv: 890,
            floor_mv: 880,
            seed: 7,
            search: SearchStrategy::Bisection,
        }
    }

    #[test]
    fn spec_validation_produces_typed_errors() {
        assert_eq!(
            FleetSpec { chips: 0, ..spec() }.campaign_config(),
            Err(SpecError::NoChips)
        );
        assert!(matches!(
            FleetSpec {
                chips: MAX_CHIPS + 1,
                ..spec()
            }
            .campaign_config(),
            Err(SpecError::TooManyChips { .. })
        ));
        assert_eq!(
            FleetSpec {
                cores: vec![200],
                ..spec()
            }
            .campaign_config(),
            Err(SpecError::BadCore { core: 200 })
        );
        assert!(matches!(
            FleetSpec {
                iterations: 0,
                ..spec()
            }
            .campaign_config(),
            Err(SpecError::Config(_))
        ));
        let config = spec().campaign_config().expect("valid spec");
        assert_eq!(config.iterations, 2);
        assert_eq!(config.search, SearchStrategy::Bisection);
    }

    #[test]
    fn chip_specs_ascend_serials_from_the_first() {
        let chips = spec().chip_specs();
        assert_eq!(chips.len(), 3);
        assert_eq!(chips[0].to_string(), "TSS#40");
        assert_eq!(chips[2].to_string(), "TSS#42");
    }
}
