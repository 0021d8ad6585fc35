//! Chaos-scenario scripts (DESIGN §13): the JSON form of
//! [`firesim_core::Scenario`].
//!
//! Core owns the script *model* and its compilation against a topology;
//! this module is the only way text becomes a [`Scenario`]. It runs the
//! document through the workspace's one JSON parser (`serde_json`) and
//! maps the resulting value tree onto the model, rejecting anything the
//! model cannot say exactly:
//!
//! ```json
//! { "name": "partition-heal", "seed": 7, "interval": 50000,
//!   "events": [
//!     { "kind": "partition", "from": 100000, "until": 300000,
//!       "islands": [["echo"]] } ] }
//! ```
//!
//! * unknown top-level and per-event fields are typos, not extensions;
//! * every number is an unsigned 64-bit integer — fractions, exponents,
//!   negatives and values ≥ 2^64 are rejected, never rounded;
//! * event windows `[from, until)` must be non-empty, percentages 0–100,
//!   and a `switch_pressure` event must set at least one limit.
//!
//! Every failure is a typed [`SimError::Scenario`] naming the offending
//! field (and the event's 1-based position).

use std::collections::BTreeMap;
use std::path::Path;

use firesim_core::{EventKind, Scenario, ScenarioEvent, SimError, SimResult};
use serde_json::{Number, Value};

type Object = BTreeMap<String, Value>;

/// Reads and parses the scenario script at `path`.
///
/// # Errors
///
/// [`SimError::Io`] when the file cannot be read; otherwise whatever
/// [`parse`] rejects.
pub fn load(path: impl AsRef<Path>) -> SimResult<Scenario> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)
        .map_err(|e| SimError::io(format!("reading scenario {}", path.display()), &e))?;
    parse(&text)
}

/// Parses a scenario script from its JSON text.
///
/// # Errors
///
/// [`SimError::Scenario`] on malformed JSON or any value the script model
/// does not accept (see the module docs).
pub fn parse(text: &str) -> SimResult<Scenario> {
    let root = serde_json::from_str(text).map_err(SimError::scenario)?;
    let obj = object(&root, "scenario")?;
    if let Some(key) = unknown_key(obj, &["name", "seed", "interval", "events"]) {
        return Err(SimError::scenario(format!(
            "unknown top-level scenario field `{key}`"
        )));
    }
    let mut events = Vec::new();
    if let Some(list) = obj.get("events") {
        for (i, ev) in array(list, "events")?.iter().enumerate() {
            events.push(event(ev).map_err(|e| match e {
                SimError::Scenario { detail } => {
                    SimError::scenario(format!("event #{}: {detail}", i + 1))
                }
                other => other,
            })?);
        }
    }
    Ok(Scenario {
        name: match obj.get("name") {
            Some(v) => string(v, "name")?,
            None => String::new(),
        },
        seed: optional_uint(obj, "seed")?.unwrap_or(0),
        interval: optional_uint(obj, "interval")?.unwrap_or(0),
        events,
    })
}

fn event(val: &Value) -> SimResult<ScenarioEvent> {
    let obj = object(val, "event")?;
    let kind = get_str(obj, "kind")?;
    let allowed: &[&str] = match kind.as_str() {
        "partition" => &["kind", "from", "until", "islands"],
        "rack_down" => &["kind", "from", "until", "group"],
        "link_down" => &["kind", "from", "until", "agent", "port"],
        "link_flaky" => &["kind", "from", "until", "agent", "port", "drop_percent"],
        "degrade" => &["kind", "from", "until", "agent", "port", "keep_percent"],
        "switch_pressure" => &[
            "kind",
            "from",
            "until",
            "switch",
            "buffer_bytes",
            "max_release_delay",
        ],
        other => {
            return Err(SimError::scenario(format!(
                "unknown event kind `{other}` (expected partition, rack_down, link_down, \
                 link_flaky, degrade, or switch_pressure)"
            )))
        }
    };
    if let Some(key) = unknown_key(obj, allowed) {
        return Err(SimError::scenario(format!(
            "unknown field `{key}` on `{kind}` event"
        )));
    }
    let from = get_uint(obj, "from")?;
    let until = get_uint(obj, "until")?;
    if from >= until {
        return Err(SimError::scenario(format!(
            "event window is empty: from={from} until={until}"
        )));
    }
    let kind = match kind.as_str() {
        "partition" => {
            let mut islands = Vec::new();
            for island in array(field(obj, "islands")?, "islands")? {
                let members = array(island, "island")?
                    .iter()
                    .map(|m| string(m, "island member"))
                    .collect::<SimResult<Vec<String>>>()?;
                if members.is_empty() {
                    return Err(SimError::scenario("empty island in partition event"));
                }
                islands.push(members);
            }
            if islands.is_empty() {
                return Err(SimError::scenario("partition event lists no islands"));
            }
            EventKind::Partition { islands }
        }
        "rack_down" => EventKind::RackDown {
            group: get_str(obj, "group")?,
        },
        "link_down" => EventKind::LinkDown {
            agent: get_str(obj, "agent")?,
            port: get_uint(obj, "port")? as usize,
        },
        "link_flaky" => EventKind::LinkFlaky {
            agent: get_str(obj, "agent")?,
            port: get_uint(obj, "port")? as usize,
            drop_percent: percent(obj, "drop_percent")?,
        },
        "degrade" => EventKind::LinkDegrade {
            agent: get_str(obj, "agent")?,
            port: get_uint(obj, "port")? as usize,
            keep_percent: percent(obj, "keep_percent")?,
        },
        "switch_pressure" => {
            let buffer_bytes = optional_uint(obj, "buffer_bytes")?.map(|b| b as usize);
            let max_release_delay = optional_uint(obj, "max_release_delay")?;
            if buffer_bytes.is_none() && max_release_delay.is_none() {
                return Err(SimError::scenario(
                    "switch_pressure needs `buffer_bytes` and/or `max_release_delay`",
                ));
            }
            EventKind::SwitchPressure {
                switch: get_str(obj, "switch")?,
                buffer_bytes,
                max_release_delay,
            }
        }
        _ => unreachable!("kind validated above"),
    };
    Ok(ScenarioEvent { from, until, kind })
}

fn unknown_key<'a>(obj: &'a Object, allowed: &[&str]) -> Option<&'a str> {
    obj.keys()
        .map(String::as_str)
        .find(|k| !allowed.contains(k))
}

fn field<'a>(obj: &'a Object, key: &str) -> SimResult<&'a Value> {
    obj.get(key)
        .ok_or_else(|| SimError::scenario(format!("missing field `{key}`")))
}

fn get_str(obj: &Object, key: &str) -> SimResult<String> {
    string(field(obj, key)?, key)
}

fn get_uint(obj: &Object, key: &str) -> SimResult<u64> {
    uint(field(obj, key)?, key)
}

fn mismatch(what: &str, expected: &str, got: &Value) -> SimError {
    let got = match got {
        Value::Null => "null".to_owned(),
        Value::Bool(_) => "a boolean".to_owned(),
        Value::Number(Number::F(f)) => format!("{f:?}"),
        Value::Number(n) => n.to_string(),
        Value::String(_) => "a string".to_owned(),
        Value::Array(_) => "an array".to_owned(),
        Value::Object(_) => "an object".to_owned(),
    };
    SimError::scenario(format!("`{what}` must be {expected}, got {got}"))
}

fn object<'a>(v: &'a Value, what: &str) -> SimResult<&'a Object> {
    v.as_object().ok_or_else(|| mismatch(what, "an object", v))
}

fn array<'a>(v: &'a Value, what: &str) -> SimResult<&'a [Value]> {
    v.as_array()
        .map(Vec::as_slice)
        .ok_or_else(|| mismatch(what, "an array", v))
}

fn string(v: &Value, what: &str) -> SimResult<String> {
    v.as_str()
        .map(str::to_owned)
        .ok_or_else(|| mismatch(what, "a string", v))
}

/// Only the parser's unsigned-integer representation is accepted:
/// `Value::as_u64` would also take `1.0` or `1e3`.
fn uint(v: &Value, what: &str) -> SimResult<u64> {
    match v {
        Value::Number(Number::U(n)) => Ok(*n),
        other => Err(mismatch(what, "an unsigned integer", other)),
    }
}

fn optional_uint(obj: &Object, key: &str) -> SimResult<Option<u64>> {
    obj.get(key).map(|v| uint(v, key)).transpose()
}

fn percent(obj: &Object, key: &str) -> SimResult<u8> {
    let v = get_uint(obj, key)?;
    u8::try_from(v)
        .ok()
        .filter(|p| *p <= 100)
        .ok_or_else(|| SimError::scenario(format!("`{key}` must be 0-100, got {v}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn scripts_dir() -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios")
    }

    /// Every committed script under `examples/scenarios/`, as sorted
    /// `(file name, text)` pairs.
    fn committed_scripts() -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = std::fs::read_dir(scripts_dir())
            .expect("examples/scenarios exists")
            .map(|e| e.expect("readable entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .map(|p| {
                let name = p.file_name().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read_to_string(&p).expect("readable script"))
            })
            .collect();
        out.sort();
        out
    }

    fn err_of(text: &str) -> String {
        match parse(text) {
            Err(e @ SimError::Scenario { .. }) => e.to_string(),
            other => panic!("{text}: expected a scenario error, got {other:?}"),
        }
    }

    /// The event kinds and optional fields no committed script uses.
    #[test]
    fn json_parses_all_event_kinds() {
        let text = r#"{"events": [
            {"kind": "link_down", "agent": "a1", "port": 2, "from": 1, "until": 2},
            {"kind": "link_flaky", "agent": "a0", "port": 0, "drop_percent": 30,
             "from": 10, "until": 20},
            {"kind": "degrade", "agent": "b0", "port": 1, "keep_percent": 100,
             "from": 10, "until": 20},
            {"kind": "switch_pressure", "switch": "rack0", "max_release_delay": 8,
             "from": 50, "until": 150}
        ]}"#;
        let kinds: Vec<EventKind> = parse(text)
            .unwrap()
            .events
            .into_iter()
            .map(|e| e.kind)
            .collect();
        let (a0, a1, b0) = ("a0".to_owned(), "a1".to_owned(), "b0".to_owned());
        assert_eq!(
            kinds,
            [
                EventKind::LinkDown { agent: a1, port: 2 },
                EventKind::LinkFlaky {
                    agent: a0,
                    port: 0,
                    drop_percent: 30
                },
                EventKind::LinkDegrade {
                    agent: b0,
                    port: 1,
                    keep_percent: 100
                },
                EventKind::SwitchPressure {
                    switch: "rack0".into(),
                    buffer_bytes: None,
                    max_release_delay: Some(8),
                },
            ]
        );
    }

    /// Each committed script parses to exactly the model the retired TOML
    /// parser built from its `.toml` predecessor (that parser's `{:?}`,
    /// recorded once), and `load` agrees with `parse`.
    #[test]
    fn json_parses_equivalently() {
        let expected = [
            (
                "congestion.json",
                r#"Scenario { name: "tor-congestion", seed: 0, interval: 50000, events: [ScenarioEvent { from: 100000, until: 400000, kind: SwitchPressure { switch: "tor0", buffer_bytes: Some(256), max_release_delay: Some(64) } }] }"#,
            ),
            (
                "memcached_partition.json",
                r#"Scenario { name: "memcached-partition", seed: 0, interval: 10000000, events: [ScenarioEvent { from: 60000000, until: 120000000, kind: Partition { islands: [["mutilate4", "mutilate5", "mutilate6"]] } }] }"#,
            ),
            (
                "noop.json",
                r#"Scenario { name: "noop", seed: 0, interval: 0, events: [] }"#,
            ),
            (
                "partition_heal.json",
                r#"Scenario { name: "partition-heal", seed: 7, interval: 50000, events: [ScenarioEvent { from: 100000, until: 300000, kind: Partition { islands: [["echo"]] } }] }"#,
            ),
            (
                "rack_down.json",
                r#"Scenario { name: "rack-down", seed: 3, interval: 50000, events: [ScenarioEvent { from: 150000, until: 250000, kind: RackDown { group: "tor0" } }] }"#,
            ),
        ];
        let scripts = committed_scripts();
        assert_eq!(scripts.len(), expected.len(), "{scripts:?}");
        for ((name, text), (want_name, want)) in scripts.iter().zip(expected) {
            assert_eq!(name, want_name);
            let parsed = parse(text).unwrap();
            assert_eq!(format!("{parsed:?}"), want, "{name}");
            assert_eq!(load(scripts_dir().join(name)).unwrap(), parsed, "{name}");
        }
        let missing = load(scripts_dir().join("missing.json"));
        assert!(matches!(missing, Err(SimError::Io { .. })), "{missing:?}");
    }

    #[test]
    fn parse_rejects_malformed_scripts() {
        assert!(err_of("{").contains("JSON"));
        assert!(err_of("[]").contains("must be an object"));
        assert!(err_of(r#"{"seed": 1.5}"#).contains("seed"));
        let link = |extra: &str| {
            format!(r#"{{"events": [{{"kind": "link_down", "agent": "a", "port": 0, {extra}}}]}}"#)
        };
        let err = err_of(&link(r#""from": 5, "until": 5"#));
        assert!(err.contains("window is empty"), "{err}");
        // Unknown fields are typos, not extensions.
        let err = err_of(&link(r#""from": 1, "until": 2, "pct": 3"#));
        assert!(err.contains("unknown field `pct`"), "{err}");
        assert!(err.contains("event #1"), "{err}");
        let err = err_of(r#"{"sede": 1}"#);
        assert!(err.contains("sede"), "{err}");
        let err = err_of(r#"{"events": [{"kind": "link_down", "from": 1, "until": 2}]}"#);
        assert!(err.contains("missing field `agent`"), "{err}");
        let err = err_of(r#"{"events": [{"kind": "teleport", "from": 1, "until": 2}]}"#);
        assert!(err.contains("unknown event kind `teleport`"), "{err}");
        let err = err_of(
            r#"{"events": [{"kind": "link_flaky", "agent": "a", "port": 0,
                "drop_percent": 101, "from": 1, "until": 2}]}"#,
        );
        assert!(err.contains("`drop_percent` must be 0-100"), "{err}");
        let err = err_of(
            r#"{"events": [{"kind": "switch_pressure", "switch": "s", "from": 1, "until": 2}]}"#,
        );
        assert!(err.contains("needs `buffer_bytes` and/or"), "{err}");
        let err = err_of(
            r#"{"events": [{"kind": "partition", "islands": [[]], "from": 1, "until": 2}]}"#,
        );
        assert!(err.contains("empty island"), "{err}");
    }

    /// `1.5`, `1.0`, `1e3`, negatives and ≥ 2^64 are all rejected as
    /// "must be an unsigned integer", naming the field — in every integer
    /// position of the script.
    #[test]
    fn integers_are_strict() {
        // `X` marks the integer under test in each script.
        let scripts = [
            ("seed", r#"{"seed": X}"#),
            ("interval", r#"{"interval": X}"#),
            (
                "from",
                r#"{"events": [{"kind": "rack_down", "group": "g", "from": X, "until": 9}]}"#,
            ),
            (
                "port",
                r#"{"events": [{"kind": "link_down", "agent": "a", "port": X, "from": 1, "until": 9}]}"#,
            ),
            (
                "keep_percent",
                r#"{"events": [{"kind": "degrade", "agent": "a", "port": 0, "keep_percent": X, "from": 1, "until": 9}]}"#,
            ),
            (
                "buffer_bytes",
                r#"{"events": [{"kind": "switch_pressure", "switch": "s", "buffer_bytes": X, "from": 1, "until": 9}]}"#,
            ),
        ];
        for bad in ["1.5", "1.0", "1e3", "-1", "18446744073709551616", "\"7\""] {
            for (field, script) in scripts {
                let err = err_of(&script.replace('X', bad));
                let want = format!("`{field}` must be an unsigned integer");
                assert!(err.contains(&want), "{bad} in {field}: {err}");
            }
        }
        // The largest u64 is still an integer.
        let max = parse(r#"{"seed": 18446744073709551615}"#).unwrap();
        assert_eq!(max.seed, u64::MAX);
    }

    /// Spellings outside the documented vocabulary (a top-level `event`,
    /// kind `link_degrade`, `switch` on `rack_down`) are typos too.
    #[test]
    fn retired_spellings_are_typos() {
        let err = err_of(r#"{"event": []}"#);
        assert!(
            err.contains("unknown top-level scenario field `event`"),
            "{err}"
        );
        let err = err_of(
            r#"{"events": [{"kind": "link_degrade", "agent": "a", "port": 0,
                "keep_percent": 5, "from": 1, "until": 2}]}"#,
        );
        assert!(err.contains("unknown event kind `link_degrade`"), "{err}");
        let err = err_of(
            r#"{"events": [{"kind": "rack_down", "switch": "tor0", "from": 1, "until": 2}]}"#,
        );
        assert!(
            err.contains("unknown field `switch` on `rack_down`"),
            "{err}"
        );
    }

    /// A parse either succeeds or fails with a typed scenario error.
    fn ok_or_typed(text: &str) -> Result<(), TestCaseError> {
        match parse(text) {
            Ok(_) | Err(SimError::Scenario { .. }) => Ok(()),
            Err(other) => Err(TestCaseError::fail(format!("{text:?}: untyped {other:?}"))),
        }
    }

    #[test]
    fn every_truncation_is_ok_or_typed_error() {
        for (name, text) in committed_scripts() {
            assert!(text.is_ascii(), "{name}: byte offsets assume ASCII");
            for cut in 0..text.len() {
                if let Err(e) = ok_or_typed(&text[..cut]) {
                    panic!("{name} cut at {cut}: {e}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn random_substitutions_are_ok_or_typed_error(
            pick in any::<usize>(),
            edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..6)
        ) {
            let scripts = committed_scripts();
            let mut bytes = scripts[pick % scripts.len()].1.clone().into_bytes();
            for (at, byte) in edits {
                let n = bytes.len();
                bytes[at % n] = byte;
            }
            ok_or_typed(&String::from_utf8_lossy(&bytes))?;
        }
    }
}
