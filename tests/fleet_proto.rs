//! Property tests for the fleet wire protocol.
//!
//! Mirrors the campaign-cache property suite: every property lives in a
//! plain helper function, and its test runs hand-picked examples first,
//! then seeded cases drawing arbitrary frames.
//!
//! The properties under test are the protocol's three contracts:
//!
//! 1. encoding is canonical and lossless — `parse_line(to_line(x)) == x`;
//! 2. decoding is total — truncated or corrupt bytes yield a typed
//!    [`ProtoError`], never a panic;
//! 3. unknown `kind` discriminators are rejected with the protocol
//!    version attached — but unknown *event* sub-kinds inside a
//!    well-formed `event` frame decode to [`FleetEvent::Unknown`], so a
//!    version-aware client can skip what a newer daemon pushes.

use margins_rng::{check_cases, SplitMix64};
use voltmargin::characterize::search::SearchStrategy;
use voltmargin::fleet::{
    FleetEvent, FleetSpec, HealthSnapshot, ProtoError, Request, Response, PROTO_VERSION,
};
use voltmargin::sim::Corner;

// ---------------------------------------------------------------------
// Properties as plain functions
// ---------------------------------------------------------------------

fn assert_request_roundtrips(frame: &Request) {
    let line = frame.to_line();
    assert!(!line.contains('\n'), "frames are single lines: {line}");
    let back = Request::parse_line(&line).expect("canonical frame decodes");
    assert_eq!(&back, frame, "lossless round trip for {line}");
    // The encoding is canonical: re-encoding the decoded frame is
    // byte-identical.
    assert_eq!(back.to_line(), line);
}

fn assert_response_roundtrips(frame: &Response) {
    let line = frame.to_line();
    assert!(!line.contains('\n'), "frames are single lines: {line}");
    let back = Response::parse_line(&line).expect("canonical frame decodes");
    assert_eq!(&back, frame, "lossless round trip for {line}");
    assert_eq!(back.to_line(), line);
}

/// Decoding arbitrary bytes must return `Ok` or a typed error — it must
/// never panic, whatever the input.
fn assert_decode_is_total(line: &str) {
    let _ = Request::parse_line(line);
    let _ = Response::parse_line(line);
}

/// Every proper prefix of a valid frame decodes to a typed error (a
/// truncated line is never accepted and never panics).
fn assert_truncations_are_typed_errors(whole: &str) {
    for cut in 0..whole.len() {
        if !whole.is_char_boundary(cut) {
            continue;
        }
        let prefix = &whole[..cut];
        let err = Request::parse_line(prefix).expect_err("a proper prefix cannot decode");
        assert!(
            matches!(
                err,
                ProtoError::Malformed { .. }
                    | ProtoError::NotAnObject
                    | ProtoError::MissingField { .. }
                    | ProtoError::BadField { .. }
            ),
            "cut at {cut}: {err:?}"
        );
    }
}

fn assert_unknown_kind_is_versioned(kind: &str) {
    let line = format!("{{\"kind\":{}}}", margins_json_string(kind));
    let err = Request::parse_line(&line).expect_err("unknown kind rejected");
    assert_eq!(
        err,
        ProtoError::UnknownKind {
            kind: kind.to_owned(),
            proto: PROTO_VERSION,
        }
    );
    // The operator-facing message names the offending kind.
    assert!(err.to_string().contains(&format!("'{kind}'")), "{err}");
    let Response::Error { proto, code, .. } = err.to_response() else {
        panic!("decode failures become error frames");
    };
    assert_eq!((proto, code.as_str()), (PROTO_VERSION, "unknown-kind"));
}

/// Renders a string as a JSON string token via the deterministic layer.
fn margins_json_string(s: &str) -> String {
    voltmargin::trace::json::render(&voltmargin::trace::json::Value::from_str_val(s))
}

// ---------------------------------------------------------------------
// Generators
//
// Frames are drawn from one seeded SplitMix64 stream, so a case seed
// covers the whole frame space.
// ---------------------------------------------------------------------

/// Strings that stress JSON escaping: quotes, backslashes, control
/// characters, non-ASCII, embedded "JSON".
fn tricky_strings() -> Vec<String> {
    vec![
        String::new(),
        "rack-a".to_owned(),
        "rack \"b\"".to_owned(),
        "back\\slash".to_owned(),
        "new\nline\r\ttab".to_owned(),
        "nul\u{0}byte".to_owned(),
        "ünïcødé — 電圧".to_owned(),
        "{\"kind\":\"submit\"}".to_owned(),
    ]
}

fn string_from(rng: &mut SplitMix64) -> String {
    let pool = tricky_strings();
    pool[(rng.next_u64() % pool.len() as u64) as usize].clone()
}

fn spec_from(rng: &mut SplitMix64) -> FleetSpec {
    let corner = match rng.next_u64() % 3 {
        0 => Corner::Ttt,
        1 => Corner::Tff,
        _ => Corner::Tss,
    };
    let search = match rng.next_u64() % 3 {
        0 => SearchStrategy::Exhaustive,
        1 => SearchStrategy::Bisection,
        _ => SearchStrategy::WarmStart,
    };
    let names = ["namd", "mcf", "bwaves"];
    let benchmarks = (0..rng.next_u64() % 4)
        .map(|_| names[(rng.next_u64() % names.len() as u64) as usize].to_owned())
        .collect();
    let cores = (0..rng.next_u64() % 4)
        .map(|_| (rng.next_u64() % 16) as u8)
        .collect();
    FleetSpec {
        corner,
        first_serial: rng.next_u64() % 1_000_000,
        chips: (rng.next_u64() % 200) as u32,
        benchmarks,
        cores,
        iterations: (rng.next_u64() % 20) as u32,
        start_mv: 800 + (rng.next_u64() % 200) as u32,
        floor_mv: 800 + (rng.next_u64() % 200) as u32,
        seed: rng.next_u64(),
        search,
    }
}

fn request_from(rng: &mut SplitMix64) -> Request {
    let client = string_from(rng);
    let job = rng.next_u64();
    match rng.next_u64() % 9 {
        0 => Request::Submit {
            client,
            spec: spec_from(rng),
        },
        1 => Request::Status { client, job },
        2 => Request::Cancel { client, job },
        3 => Request::Results { client, job },
        4 => Request::Subscribe { client, job },
        5 => Request::Unsubscribe { client, job },
        6 => Request::Health,
        7 => Request::Metrics,
        _ => Request::Shutdown,
    }
}

/// Event `what` tokens no proto-v2 decoder knows; used to exercise the
/// skip-don't-fail contract.
const UNKNOWN_WHATS: [&str; 3] = ["chip-rebooted", "rail-browned-out", "x"];

fn event_from(rng: &mut SplitMix64) -> FleetEvent {
    let job = rng.next_u64();
    let chip = rng.next_u64() as u32;
    match rng.next_u64() % 10 {
        0 => FleetEvent::JobQueued {
            job,
            client: string_from(rng),
            chips: rng.next_u64() as u32,
        },
        1 => FleetEvent::JobStarted { job },
        2 => FleetEvent::ChipStarted {
            job,
            chip,
            chip_id: string_from(rng),
        },
        3 => FleetEvent::SweepProgress {
            job,
            chip,
            program: string_from(rng),
            dataset: string_from(rng),
            core: (rng.next_u64() % 8) as u8,
            runs: rng.next_u64(),
        },
        4 => FleetEvent::ChipFinished {
            job,
            chip,
            chip_id: string_from(rng),
            runs: rng.next_u64(),
            power_cycles: rng.next_u64(),
            vmin_mv: rng
                .next_u64()
                .is_multiple_of(2)
                .then(|| 800 + (rng.next_u64() % 200) as u32),
            severity_sum: (rng.next_u64() % 1_000) as f64 / 8.0,
            cache_hits: rng.next_u64(),
            cache_lookups: rng.next_u64(),
            trace: string_from(rng),
        },
        5 => FleetEvent::JobFinished {
            job,
            chips: rng.next_u64() as u32,
            runs: rng.next_u64(),
            power_cycles: rng.next_u64(),
        },
        6 => FleetEvent::JobCancelled {
            job,
            done: rng.next_u64() as u32,
            total: rng.next_u64() as u32,
        },
        7 => FleetEvent::JobFailed {
            job,
            message: string_from(rng),
        },
        8 => FleetEvent::Lagged {
            job,
            dropped: rng.next_u64(),
        },
        _ => FleetEvent::Unknown {
            what: UNKNOWN_WHATS[(rng.next_u64() % UNKNOWN_WHATS.len() as u64) as usize].to_owned(),
        },
    }
}

fn response_from(rng: &mut SplitMix64) -> Response {
    let text_a = string_from(rng);
    let text_b = string_from(rng);
    let job = rng.next_u64();
    match rng.next_u64() % 11 {
        0 => Response::Submitted {
            job,
            chips: rng.next_u64() as u32,
        },
        1 => Response::Status {
            job,
            state: text_a,
            done: rng.next_u64() as u32,
            total: rng.next_u64() as u32,
            queue_position: rng.next_u64() as u32,
            progress: (rng.next_u64() % 101) as f64 / 100.0,
        },
        2 => Response::Cancelled {
            job,
            done: rng.next_u64() as u32,
            total: rng.next_u64() as u32,
        },
        3 => Response::Results {
            job,
            chips: rng.next_u64() as u32,
            runs: rng.next_u64(),
            power_cycles: rng.next_u64(),
            executed_ops: rng.next_u64(),
            trace: text_a,
            metrics: text_b,
        },
        4 => Response::Bye,
        5 => Response::Subscribed { job },
        6 => Response::Unsubscribed { job },
        7 => Response::Health(HealthSnapshot {
            workers: rng.next_u64() as u32,
            busy: rng.next_u64() as u32,
            queued_units: rng.next_u64(),
            jobs_queued: rng.next_u64() as u32,
            jobs_running: rng.next_u64() as u32,
            jobs_done: rng.next_u64() as u32,
            jobs_cancelled: rng.next_u64() as u32,
            jobs_failed: rng.next_u64() as u32,
            subscribers: rng.next_u64() as u32,
        }),
        8 => Response::Metrics { body: text_a },
        9 => Response::Event(event_from(rng)),
        _ => Response::Error {
            proto: rng.next_u64() as u32,
            code: text_a,
            message: text_b,
        },
    }
}

/// Arbitrary decoder input: up to 40 chars mixing ASCII, JSON
/// punctuation, control characters and multi-byte scalars.
fn arbitrary_line(rng: &mut SplitMix64) -> String {
    let specials = ['"', '\\', '{', '}', ':', ',', '[', ']', '\u{0}', '\u{7f}'];
    (0..rng.below(41))
        .map(|_| match rng.below(4) {
            0 => specials[rng.below(specials.len() as u64) as usize],
            1 => char::from(rng.below(0x80) as u8),
            2 => char::from_u32(0x80 + rng.below(0xD800 - 0x80) as u32).unwrap_or('?'),
            _ => char::from(b' ' + rng.below(95) as u8),
        })
        .collect()
}

/// A `[a-z-]{1,max}` word.
fn word(rng: &mut SplitMix64, max: u64) -> String {
    let alphabet = b"abcdefghijklmnopqrstuvwxyz-";
    (0..=rng.below(max))
        .map(|_| char::from(alphabet[rng.below(alphabet.len() as u64) as usize]))
        .collect()
}

// ---------------------------------------------------------------------
// Tests: hand-picked examples, then seeded cases
// ---------------------------------------------------------------------

fn example_spec() -> FleetSpec {
    FleetSpec {
        corner: Corner::Tff,
        first_serial: 128,
        chips: 64,
        benchmarks: vec!["namd".into(), "mcf".into()],
        cores: vec![0, 4],
        iterations: 3,
        start_mv: 890,
        floor_mv: 870,
        seed: 41,
        search: SearchStrategy::WarmStart,
    }
}

#[test]
fn request_wire_roundtrip_is_lossless() {
    for client in tricky_strings() {
        assert_request_roundtrips(&Request::Submit {
            client: client.clone(),
            spec: example_spec(),
        });
        assert_request_roundtrips(&Request::Status {
            client: client.clone(),
            job: u64::MAX,
        });
        assert_request_roundtrips(&Request::Cancel {
            client: client.clone(),
            job: 0,
        });
        assert_request_roundtrips(&Request::Results {
            client: client.clone(),
            job: 7,
        });
        assert_request_roundtrips(&Request::Subscribe {
            client: client.clone(),
            job: 9,
        });
        assert_request_roundtrips(&Request::Unsubscribe { client, job: 9 });
    }
    assert_request_roundtrips(&Request::Shutdown);
    assert_request_roundtrips(&Request::Health);
    assert_request_roundtrips(&Request::Metrics);
    check_cases(256, |rng| assert_request_roundtrips(&request_from(rng)));
}

#[test]
fn response_wire_roundtrip_is_lossless() {
    for text in tricky_strings() {
        assert_response_roundtrips(&Response::Status {
            job: 3,
            state: text.clone(),
            done: 1,
            total: 64,
            queue_position: 2,
            progress: 0.015_625,
        });
        assert_response_roundtrips(&Response::Results {
            job: 3,
            chips: 64,
            runs: 7_680,
            power_cycles: 12,
            executed_ops: 0,
            trace: text.clone(),
            metrics: text.clone(),
        });
        assert_response_roundtrips(&Response::Error {
            proto: PROTO_VERSION,
            code: "bad-spec".into(),
            message: text,
        });
    }
    assert_response_roundtrips(&Response::Submitted { job: 1, chips: 64 });
    assert_response_roundtrips(&Response::Cancelled {
        job: 1,
        done: 5,
        total: 64,
    });
    assert_response_roundtrips(&Response::Bye);
    assert_response_roundtrips(&Response::Subscribed { job: 1 });
    assert_response_roundtrips(&Response::Unsubscribed { job: 1 });
    assert_response_roundtrips(&Response::Health(HealthSnapshot {
        workers: 4,
        busy: 3,
        queued_units: 61,
        jobs_queued: 1,
        jobs_running: 1,
        jobs_done: 2,
        jobs_cancelled: 1,
        jobs_failed: 0,
        subscribers: 2,
    }));
    assert_response_roundtrips(&Response::Metrics {
        body: "# TYPE voltmargin_fleet_workers gauge\nvoltmargin_fleet_workers 4\n# EOF\n".into(),
    });
    check_cases(256, |rng| assert_response_roundtrips(&response_from(rng)));
}

#[test]
fn example_events_roundtrip() {
    check_cases(64, |rng| {
        assert_response_roundtrips(&Response::Event(event_from(rng)));
    });
    // The censored chip encodes its Vmin by omission and still round-trips.
    assert_response_roundtrips(&Response::Event(FleetEvent::ChipFinished {
        job: 0,
        chip: 1,
        chip_id: "TSS#2".into(),
        runs: 6,
        power_cycles: 2,
        vmin_mv: None,
        severity_sum: 1.5,
        cache_hits: 0,
        cache_lookups: 6,
        trace: "{\"seq\":0}\n".into(),
    }));
    let censored = Response::Event(FleetEvent::ChipFinished {
        job: 2,
        chip: 0,
        chip_id: "TFF#9".into(),
        runs: 3,
        power_cycles: 2,
        vmin_mv: None,
        severity_sum: 7.5,
        cache_hits: 0,
        cache_lookups: 4,
        trace: String::new(),
    })
    .to_line();
    assert!(!censored.contains("vmin_mv"), "{censored}");
}

#[test]
fn unknown_event_whats_decode_skippable() {
    // A well-formed event frame whose `what` this version has never
    // heard of decodes to `FleetEvent::Unknown` — the client skips it and
    // keeps the stream, instead of dropping the connection.
    for what in UNKNOWN_WHATS {
        let line = format!(
            "{{\"kind\":\"event\",\"what\":{},\"job\":3,\"payload\":{{\"novel\":true}}}}",
            margins_json_string(what)
        );
        let decoded = Response::parse_line(&line).expect("unknown event kinds decode");
        assert_eq!(
            decoded,
            Response::Event(FleetEvent::Unknown {
                what: what.to_owned()
            })
        );
    }
    // A *known* what with a broken payload is still a typed error: the
    // skip contract covers novelty, not corruption.
    let corrupt = "{\"kind\":\"event\",\"what\":\"job-started\"}";
    assert!(Response::parse_line(corrupt).is_err());
    assert_eq!(
        Response::parse_line("{\"kind\":\"event\",\"what\":\"lagged\"}"),
        Err(ProtoError::MissingField {
            field: "job".into()
        })
    );
    // An unknown *frame* kind stays a hard, typed rejection.
    assert!(matches!(
        Response::parse_line("{\"kind\":\"telemetry\"}"),
        Err(ProtoError::UnknownKind { .. })
    ));
    let known = [
        "job-queued",
        "job-started",
        "chip-started",
        "sweep-progress",
        "chip-finished",
        "job-finished",
        "job-cancelled",
        "job-failed",
        "lagged",
    ];
    check_cases(256, |rng| {
        let what = word(rng, 16);
        if known.contains(&what.as_str()) {
            return;
        }
        let line = format!(
            "{{\"kind\":\"event\",\"what\":{}}}",
            margins_json_string(&what)
        );
        let decoded = Response::parse_line(&line).expect("unknown event kinds decode");
        assert_eq!(decoded, Response::Event(FleetEvent::Unknown { what }));
    });
}

#[test]
fn truncated_frames_are_typed_errors() {
    assert_truncations_are_typed_errors(
        &Request::Submit {
            client: "rack \"a\"\n".into(),
            spec: example_spec(),
        }
        .to_line(),
    );
    assert_truncations_are_typed_errors(
        &Response::Results {
            job: 1,
            chips: 2,
            runs: 3,
            power_cycles: 4,
            executed_ops: 5,
            trace: "{\"seq\":0}\n".into(),
            metrics: "# EOF\n".into(),
        }
        .to_line(),
    );
    check_cases(256, |rng| {
        assert_truncations_are_typed_errors(&request_from(rng).to_line());
    });
}

/// Hand-picked corrupt frames: wrong JSON shapes, wrong field types,
/// out-of-range numbers and half-formed submits.
const CORRUPT_LINES: [&str; 17] = [
    "",
    "   ",
    "null",
    "true",
    "42",
    "\"just a string\"",
    "[1,2,3]",
    "{}",
    "{\"kind\":7}",
    "{\"kind\":\"submit\"}",
    "{\"kind\":\"submit\",\"client\":\"c\",\"spec\":3}",
    "{\"kind\":\"status\",\"client\":\"c\",\"job\":\"one\"}",
    "{\"kind\":\"status\",\"client\":\"c\",\"job\":-1}",
    "{\"kind\":\"submitted\",\"job\":0,\"chips\":4294967296}",
    "\u{0}\u{1}\u{2}",
    "ütterly wröng",
    "{\"kind\":\"submit\",\"client\":\"c\",\"spec\":{\"corner\":\"xyz\"}}",
];

#[test]
fn arbitrary_bytes_never_panic_the_decoder() {
    for line in CORRUPT_LINES {
        assert_decode_is_total(line);
        assert!(
            Request::parse_line(line).is_err(),
            "corrupt frame must not decode: {line:?}"
        );
    }
    assert_eq!(Request::parse_line("[1,2]"), Err(ProtoError::NotAnObject));
    assert_eq!(
        Request::parse_line("{\"kind\":7}").map_err(|e| e.code()),
        Err("bad-field")
    );
    check_cases(256, |rng| assert_decode_is_total(&arbitrary_line(rng)));
}

#[test]
fn mutated_frames_never_panic_the_decoder() {
    let replacements = ['x', '"', '{', '}', ':', ',', '\\', '\u{0}'];
    check_cases(256, |rng| {
        let chars: Vec<char> = request_from(rng).to_line().chars().collect();
        let idx = rng.below(400) as usize % chars.len();
        let mut mutated: String = chars[..idx].iter().collect();
        mutated.push(replacements[rng.below(replacements.len() as u64) as usize]);
        mutated.extend(&chars[idx + 1..]);
        assert_decode_is_total(&mutated);
    });
}

#[test]
fn unknown_kinds_are_versioned_rejections() {
    for kind in ["reboot", "Submit", "SUBMIT", "submit ", "", "結果"] {
        assert_unknown_kind_is_versioned(kind);
    }
    // Skip the kinds this protocol version does define.
    let known = [
        "submit",
        "status",
        "cancel",
        "results",
        "shutdown",
        "subscribe",
        "unsubscribe",
        "health",
        "metrics",
    ];
    check_cases(256, |rng| {
        let kind = word(rng, 12);
        if !known.contains(&kind.as_str()) {
            assert_unknown_kind_is_versioned(&kind);
        }
    });
}

// ---------------------------------------------------------------------
// Pinned bytes: the codec's exact output across refactors
// ---------------------------------------------------------------------

/// One frame of every request kind.
fn example_requests() -> Vec<Request> {
    let client = "rack \"a\"\n".to_owned();
    vec![
        Request::Submit {
            client: client.clone(),
            spec: example_spec(),
        },
        Request::Status {
            client: client.clone(),
            job: u64::MAX,
        },
        Request::Cancel {
            client: client.clone(),
            job: 0,
        },
        Request::Results {
            client: client.clone(),
            job: 7,
        },
        Request::Subscribe {
            client: client.clone(),
            job: 9,
        },
        Request::Unsubscribe { client, job: 9 },
        Request::Health,
        Request::Metrics,
        Request::Shutdown,
    ]
}

/// One event of every `what` kind, with the censored and uncensored
/// chip-finished shapes.
fn example_events() -> Vec<FleetEvent> {
    let finished = |vmin_mv| FleetEvent::ChipFinished {
        job: 1,
        chip: 3,
        chip_id: "TTT#103".into(),
        runs: 3,
        power_cycles: 1,
        vmin_mv,
        severity_sum: 2.5,
        cache_hits: 0,
        cache_lookups: 4,
        trace: "{\"seq\":0}\n".into(),
    };
    vec![
        FleetEvent::JobQueued {
            job: 0,
            client: "rack \"a\"".into(),
            chips: 64,
        },
        FleetEvent::JobStarted { job: 0 },
        FleetEvent::ChipStarted {
            job: 0,
            chip: 1,
            chip_id: "TSS#501".into(),
        },
        FleetEvent::SweepProgress {
            job: 0,
            chip: 1,
            program: "namd".into(),
            dataset: "ref".into(),
            core: 4,
            runs: 3,
        },
        finished(Some(885)),
        finished(None),
        FleetEvent::JobFinished {
            job: 0,
            chips: 64,
            runs: 192,
            power_cycles: 4,
        },
        FleetEvent::JobCancelled {
            job: 0,
            done: 12,
            total: 64,
        },
        FleetEvent::JobFailed {
            job: 0,
            message: "executor: too many threads".into(),
        },
        FleetEvent::Lagged { job: 0, dropped: 1 },
        FleetEvent::Unknown {
            what: "chip-teleported".into(),
        },
    ]
}

/// One frame of every response kind, plus an event frame per event kind.
fn example_responses() -> Vec<Response> {
    let mut frames = vec![
        Response::Submitted { job: 1, chips: 64 },
        Response::Status {
            job: 1,
            state: "running".into(),
            done: 3,
            total: 64,
            queue_position: 7,
            progress: 3.0 / 64.0,
        },
        Response::Cancelled {
            job: 9,
            done: 2,
            total: 5,
        },
        Response::Subscribed { job: 4 },
        Response::Unsubscribed { job: 4 },
        Response::Health(HealthSnapshot {
            workers: 4,
            busy: 2,
            queued_units: 61,
            jobs_queued: 1,
            jobs_running: 1,
            jobs_done: 3,
            jobs_cancelled: 1,
            jobs_failed: 0,
            subscribers: 2,
        }),
        Response::Metrics {
            body: "# TYPE voltmargin_runs counter\nvoltmargin_runs_total 3\n# EOF\n".into(),
        },
        Response::Results {
            job: 1,
            chips: 2,
            runs: 120,
            power_cycles: 4,
            executed_ops: 0,
            trace: "{\"seq\":0}\n{\"seq\":1}\n".into(),
            metrics: "# EOF\n".into(),
        },
        Response::Bye,
        Response::Error {
            proto: PROTO_VERSION,
            code: "malformed".into(),
            message: "truncated".into(),
        },
    ];
    frames.extend(example_events().into_iter().map(Response::Event));
    frames
}

/// Frames with several faults at once: the one reported pins the order
/// in which the decoder checks fields.
const MULTI_FAULT_LINES: [&str; 23] = [
    "{\"kind\":\"status\"}",
    "{\"kind\":\"submit\",\"spec\":3}",
    "{\"kind\":\"submit\",\"client\":\"c\",\"spec\":{\"corner\":\"xyz\",\"search\":\"nope\"}}",
    "{\"kind\":\"submit\",\"client\":\"c\",\"spec\":{\"corner\":\"xyz\",\"first_serial\":1,\"benchmarks\":[\"namd\"],\"cores\":[0],\"iterations\":1,\"start_mv\":900,\"floor_mv\":880,\"seed\":1,\"search\":\"bisection\"}}",
    "{\"kind\":\"submit\",\"client\":\"c\",\"spec\":{\"corner\":\"ttt\",\"first_serial\":1,\"benchmarks\":[\"namd\"],\"cores\":[300],\"iterations\":1,\"start_mv\":900,\"floor_mv\":880,\"seed\":1,\"search\":\"bisection\"}}",
    "{\"kind\":\"submit\",\"client\":\"c\",\"spec\":{\"corner\":\"tff\",\"search\":\"nope\",\"benchmarks\":\"namd\"}}",
    "{\"kind\":\"submit\",\"client\":\"c\",\"spec\":{\"corner\":\"tss\",\"search\":\"warm-start\",\"benchmarks\":[\"namd\",1],\"cores\":7}}",
    "{\"kind\":\"submit\",\"client\":\"c\",\"spec\":{\"corner\":\"tss\",\"search\":\"exhaustive\",\"benchmarks\":[],\"cores\":[],\"first_serial\":0,\"chips\":-1}}",
    "{\"kind\":\"status\",\"client\":\"c\",\"job\":1.5}",
    "{\"kind\":\"status\",\"job\":\"x\",\"state\":7}",
    "{\"kind\":\"status\",\"job\":1,\"state\":\"s\",\"done\":1,\"total\":2,\"queue_position\":0,\"progress\":1e999}",
    "{\"kind\":\"status\",\"job\":1,\"state\":\"s\",\"done\":1,\"total\":2,\"queue_position\":0,\"progress\":\"half\"}",
    "{\"kind\":\"health\",\"workers\":1}",
    "{\"kind\":\"health\"}\r\n",
    "{\"kind\":\"error\",\"proto\":4294967296,\"code\":5}",
    "{\"kind\":\"results\",\"job\":1}",
    "{\"kind\":\"metrics\",\"body\":null}",
    "{\"kind\":\"event\"}",
    "{\"kind\":\"event\",\"what\":7}",
    "{\"kind\":\"event\",\"what\":\"lagged\"}",
    "{\"kind\":\"event\",\"what\":\"job-queued\",\"job\":1,\"client\":\"c\",\"chips\":-2}",
    "{\"kind\":\"event\",\"what\":\"sweep-progress\",\"job\":1,\"chip\":2,\"program\":\"p\",\"dataset\":\"d\",\"core\":300,\"runs\":1}",
    "{\"kind\":\"event\",\"what\":\"chip-finished\",\"job\":1,\"chip\":2,\"chip_id\":\"x\",\"runs\":1,\"power_cycles\":0,\"vmin_mv\":4294967296}",
];

/// A decode outcome as text: the re-encoded frame, or the error's code
/// and message.
fn outcome<T>(decoded: Result<T, ProtoError>, encode: impl Fn(&T) -> String) -> String {
    match decoded {
        Ok(frame) => format!("ok {}", encode(&frame)),
        Err(e) => format!("{} {e}", e.code()),
    }
}

#[test]
fn wire_bytes_and_error_texts_are_pinned() {
    let mut text = String::new();
    let mut push = |line: String| {
        text.push_str(&line);
        text.push('\n');
    };
    for frame in example_requests() {
        push(frame.to_line());
    }
    for frame in example_responses() {
        push(frame.to_line());
    }
    check_cases(64, |rng| push(request_from(rng).to_line()));
    check_cases(64, |rng| push(response_from(rng).to_line()));
    let submit = example_requests()[0].to_line();
    let prefixes = (0..=submit.len())
        .filter(|&cut| submit.is_char_boundary(cut))
        .map(|cut| &submit[..cut]);
    for line in CORRUPT_LINES
        .into_iter()
        .chain(MULTI_FAULT_LINES)
        .chain(prefixes)
    {
        push(outcome(Request::parse_line(line), Request::to_line));
        push(outcome(Response::parse_line(line), Response::to_line));
    }
    let fnv1a = text.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    assert_eq!(
        fnv1a, 0x4fff_d0b6_3dbd_06ba,
        "wire bytes or error texts moved:\n{text}"
    );
}
