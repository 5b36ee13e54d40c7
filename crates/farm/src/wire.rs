//! The farm's wire codec, in one place.
//!
//! Every master/slave link — the flat farm's, plain or supervised, and
//! `serve`'s — speaks one wire, shared by both sides:
//! the *job frame* out ([`JobFrame`] / [`decode_frame`]), one member or
//! many, each a serialized problem or a file name behind its wire id,
//! written and read as bytes, never a value tree; the frame's answers
//! back as columns ([`encode_reply`] / `decode_reply`), also written and
//! read as bytes (the tree they serialize, [`batch_reply_value`], is the
//! reference the bytes are pinned to); and the empty message as the stop
//! sentinel.
//!
//! Decoding is total: [`decode_frame`] and `decode_reply` never
//! silently drop or repair an undecodable message — they return
//! [`FarmError::Protocol`].

use crate::robin_hood::FarmError;
use nspval::{BoolMatrix, Matrix, Value};
use pricing::PricingResult;
use xdrser::{ListEncoder, Node, Walker};

/// A job or rank index off the wire: a finite, non-negative integer.
/// (`as usize` alone would turn a NaN, negative or mangled number into
/// 0 and drop a fraction.)
fn index_of_f64(x: f64) -> Option<usize> {
    (x >= 0.0 && x.fract() == 0.0 && x < usize::MAX as f64).then_some(x as usize)
}

// ---------------------------------------------------------------------------
// Job frames (master → slave)
// ---------------------------------------------------------------------------

/// Encoded bytes of a job frame around its members: magic, version,
/// list tag, list length.
pub const FRAME_HEADER_BYTES: usize = 16;

/// Encoded bytes of a serial frame member around its (4-byte padded)
/// problem: the wire id (tag, rows, cols, f64) and the serial's tag,
/// compression flag and length word.
pub const MEMBER_HEADER_BYTES: usize = 20 + 12;

/// What one member of a job frame carries behind its wire id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Body<'a> {
    /// The serialized problem itself (the loaded strategies, `serve`).
    Serial {
        /// Whether the bytes are LZSS-compressed.
        compressed: bool,
        /// The serialized problem.
        bytes: &'a [u8],
    },
    /// The problem's file name, for the slave to read itself (NFS).
    Name(&'a str),
}

/// A job frame being written, `[id₀, body₀, id₁, body₁, …]`, member by
/// member and straight into the bytes that travel: a problem's bytes
/// are copied once, from where they were fetched into the message, or
/// read from its file into the message in the first place
/// (`JobFrame::push_filled`).
#[derive(Debug)]
pub struct JobFrame(ListEncoder);

impl JobFrame {
    /// Start an empty frame in `buf`, recycling its allocation.
    pub fn new(buf: Vec<u8>) -> Self {
        JobFrame(ListEncoder::new(buf))
    }

    /// Append one member.
    pub fn push(&mut self, id: usize, body: Body<'_>) {
        self.0.scalar(id as f64);
        match body {
            Body::Serial { compressed, bytes } => self.0.serial(compressed, bytes),
            Body::Name(name) => self.0.string(name),
        }
    }

    /// Append one member whose uncompressed serial `fill` appends to the
    /// buffer it is handed, straight into the frame
    /// ([`ListEncoder::serial_filled`]). Returns what `fill` returned
    /// and the serial's length. When `fill` fails, the frame holds the
    /// member's id without a body and is to be dropped.
    pub(crate) fn push_filled<T, E>(
        &mut self,
        id: usize,
        fill: impl FnOnce(&mut Vec<u8>) -> Result<T, E>,
    ) -> Result<(T, usize), E> {
        self.0.scalar(id as f64);
        self.0.serial_filled(fill)
    }

    /// The frame's bytes.
    pub fn finish(self) -> Vec<u8> {
        self.0.finish()
    }
}

/// Read a job frame in place, bodies borrowed from the message. The
/// whole of it is checked before any member is priced: a frame that is
/// not well formed — a wire id that is no index included — is a
/// [`FarmError::Protocol`].
pub fn decode_frame(bytes: &[u8]) -> Result<Vec<(usize, Body<'_>)>, FarmError> {
    let walk = || -> Option<Vec<(usize, Body<'_>)>> {
        let mut w = Walker::open(bytes).ok()?;
        let n = match w.node().ok()? {
            Node::List(n) if n > 0 && n % 2 == 0 => n / 2,
            _ => return None,
        };
        // Sized by what the bytes can hold, not by what they claim.
        let mut members = Vec::with_capacity(n.min(bytes.len() / MEMBER_HEADER_BYTES));
        for _ in 0..n {
            let Node::Scalar(id) = w.node().ok()? else {
                return None;
            };
            let body = match w.node().ok()? {
                Node::Serial { compressed, bytes } => Body::Serial { compressed, bytes },
                Node::Str(name) => Body::Name(name),
                _ => return None,
            };
            members.push((index_of_f64(id)?, body));
        }
        w.close().ok()?;
        Some(members)
    };
    let n = bytes.len();
    walk().ok_or_else(|| FarmError::Protocol(format!("undecodable job frame ({n} bytes)")))
}

// ---------------------------------------------------------------------------
// Answers (slave → master)
// ---------------------------------------------------------------------------

/// What a slave says about one job: priced, or failed and why. A
/// frame's answers travel as columns ([`encode_reply`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// The job priced successfully.
    Priced {
        /// The answered job.
        job: usize,
        /// Price estimate.
        price: f64,
        /// Monte-Carlo standard error, when the method reports one.
        std_error: Option<f64>,
    },
    /// The slave could not complete the job and says why.
    Failed {
        /// The failed job.
        job: usize,
        /// Human-readable reason.
        why: String,
    },
}

impl Answer {
    /// A priced answer from a [`PricingResult`].
    pub(crate) fn priced(job: usize, result: &PricingResult) -> Answer {
        Answer::Priced {
            job,
            price: result.price,
            std_error: result.std_error,
        }
    }

    /// A failure report.
    pub(crate) fn failed(job: usize, why: impl Into<String>) -> Answer {
        Answer::Failed {
            job,
            why: why.into(),
        }
    }

    /// The job this answer is about.
    pub(crate) fn job(&self) -> usize {
        match self {
            Answer::Priced { job, .. } | Answer::Failed { job, .. } => *job,
        }
    }
}

/// Write a whole batch reply — one answer per member, in compute order
/// — into `buf` (its allocation recycled), as columns: `[ids, prices,
/// std_errors, has_std_error, failures]`, three 1×n real matrices, a 1×n
/// boolean mask saying which members report a standard error, and one
/// `[member, reason]` pair per failed member (its price column is a
/// placeholder). A frame of n answers is five values, not n
/// string-keyed hashes, and they are written straight into the bytes
/// that travel: no value tree. The bytes are those of
/// [`batch_reply_value`] serialized.
pub fn encode_reply(answers: &[Answer], buf: Vec<u8>) -> Vec<u8> {
    let mut e = ListEncoder::new(buf);
    e.reals(answers.iter().map(|a| a.job() as f64));
    e.reals(answers.iter().map(|a| priced(a).0));
    e.reals(answers.iter().map(|a| priced(a).1.unwrap_or(0.0)));
    e.bools(answers.iter().map(|a| priced(a).1.is_some()));
    e.list(|failures| {
        for (i, a) in answers.iter().enumerate() {
            if let Answer::Failed { why, .. } = a {
                failures.list(|pair| {
                    pair.scalar(i as f64);
                    pair.string(why);
                });
            }
        }
    });
    e.finish()
}

/// An answer's price and standard error; a failure's are placeholders.
fn priced(a: &Answer) -> (f64, Option<f64>) {
    match a {
        Answer::Priced {
            price, std_error, ..
        } => (*price, *std_error),
        Answer::Failed { .. } => (0.0, None),
    }
}

/// The batch reply [`encode_reply`] writes, as a value tree: the bytes'
/// reference, and what a test edits to forge a reply no honest slave
/// sends.
pub fn batch_reply_value(answers: &[Answer]) -> Value {
    let column =
        |of: &dyn Fn(&Answer) -> f64| Value::Real(Matrix::row(answers.iter().map(of).collect()));
    let failure = |(i, a): (usize, &Answer)| match a {
        Answer::Failed { why, .. } => Some(Value::list(vec![
            Value::scalar(i as f64),
            Value::string(why.clone()),
        ])),
        Answer::Priced { .. } => None,
    };
    Value::list(vec![
        column(&|a| a.job() as f64),
        column(&|a| priced(a).0),
        column(&|a| priced(a).1.unwrap_or(0.0)),
        Value::Bool(BoolMatrix::row(
            answers.iter().map(|a| priced(a).1.is_some()).collect(),
        )),
        Value::list(answers.iter().enumerate().filter_map(failure).collect()),
    ])
}

/// Read a whole batch reply in place, no value tree built; columns of
/// unequal length, an id that is not an index, a failure naming a
/// member the frame does not have, or bytes that are no well-formed
/// reply are a [`FarmError::Protocol`].
pub(crate) fn decode_reply(bytes: &[u8]) -> Result<Vec<Answer>, FarmError> {
    let walk = || -> Option<Vec<Answer>> {
        let mut w = Walker::open(bytes).ok()?;
        if w.node().ok()? != Node::List(5) {
            return None;
        }
        let ids = w.reals().ok()?;
        let prices = w.reals().ok()?;
        let errors = w.reals().ok()?;
        let has_error = w.bools().ok()?;
        let n = ids.len();
        if prices.len() != n || errors.len() != n || has_error.len() != n {
            return None;
        }
        let mut answers = (0..n)
            .map(|i| {
                Some(Answer::Priced {
                    job: index_of_f64(ids.get(i))?,
                    price: prices.get(i),
                    std_error: (has_error[i] != 0).then(|| errors.get(i)),
                })
            })
            .collect::<Option<Vec<Answer>>>()?;
        let Node::List(failures) = w.node().ok()? else {
            return None;
        };
        for _ in 0..failures {
            if w.node().ok()? != Node::List(2) {
                return None;
            }
            let (Node::Scalar(member), Node::Str(why)) = (w.node().ok()?, w.node().ok()?) else {
                return None;
            };
            let slot = answers.get_mut(index_of_f64(member)?)?;
            *slot = Answer::failed(slot.job(), why);
        }
        w.close().ok()?;
        Some(answers)
    };
    let n = bytes.len();
    walk().ok_or_else(|| FarmError::Protocol(format!("undecodable batch reply ({n} bytes)")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nspval::{Hash, Serial};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn job_frame_members_round_trip(
            idx in 0usize..10_000,
            name in "[a-z0-9/_.-]{1,40}",
            compressed in any::<bool>(),
        ) {
            // The same job as the two kinds of frame member.
            let bytes = name.as_bytes();
            let members = [(idx, Body::Serial { compressed, bytes }), (idx + 1, Body::Name(&name))];
            let mut frame = JobFrame::new(Vec::new());
            members.iter().for_each(|&(id, body)| frame.push(id, body));
            let wire = frame.finish();
            prop_assert_eq!(decode_frame(&wire).unwrap(), members);
        }

        #[test]
        fn batch_replies_round_trip(
            members in proptest::collection::vec(
                (0usize..1000, any::<f64>(), any::<f64>(), 0u8..3, "[a-z ]{0,20}"),
                0..20,
            ),
        ) {
            // Priced with and without a standard error and failed
            // members, mixed in one frame.
            let answers: Vec<Answer> = members
                .iter()
                .map(|(job, price, se, kind, why)| match kind {
                    0 => Answer::Priced { job: *job, price: *price, std_error: None },
                    1 => Answer::Priced { job: *job, price: *price, std_error: Some(*se) },
                    _ => Answer::failed(*job, why.clone()),
                })
                .collect();
            // Through the bytes that actually cross minimpi.
            let bytes = xdrser::serialize_to_bytes(&batch_reply_value(&answers));
            let back = decode_batch_reply(&xdrser::unserialize_bytes(&bytes).unwrap()).unwrap();
            // The writer's bytes are the tree's, whatever buffer it recycles.
            prop_assert_eq!(&encode_reply(&answers, vec![0xAA; 40]), &bytes);
            prop_assert_eq!(back.len(), answers.len());
            for (b, a) in back.iter().zip(&answers) {
                match (b, a) {
                    (
                        Answer::Priced { job: jb, price: pb, std_error: sb },
                        Answer::Priced { job: ja, price: pa, std_error: sa },
                    ) => {
                        prop_assert_eq!(jb, ja);
                        prop_assert_eq!(pb.to_bits(), pa.to_bits());
                        prop_assert_eq!(sb.map(f64::to_bits), sa.map(f64::to_bits));
                    }
                    _ => prop_assert_eq!(b, a),
                }
            }
        }
    }

    /// Write a frame of `members`.
    fn frame_of(members: &[(usize, Body<'_>)]) -> Vec<u8> {
        let mut frame = JobFrame::new(Vec::new());
        members.iter().for_each(|&(id, body)| frame.push(id, body));
        frame.finish()
    }

    #[test]
    fn a_member_filled_in_place_is_the_member_pushed() {
        let (problem, name) = (&[9u8, 8, 7, 6, 5][..], Body::Name("pb-00003.bin"));
        let serial = Body::Serial {
            compressed: false,
            bytes: problem,
        };
        let mut filled = JobFrame::new(Vec::new());
        filled.push(2, name);
        let fill = |out: &mut Vec<u8>| {
            out.extend_from_slice(problem);
            Ok::<_, ()>("read")
        };
        assert_eq!(filled.push_filled(3, fill), Ok(("read", problem.len())));
        assert_eq!(filled.finish(), frame_of(&[(2, name), (3, serial)]));
    }

    /// The reference reader: materialise the message, then read the
    /// frame out of the tree.
    fn decode_frame_via_tree(bytes: &[u8]) -> Option<Vec<(usize, Value)>> {
        let v = xdrser::unserialize_bytes(bytes).ok()?;
        let l = v.as_list().filter(|l| !l.is_empty() && l.len() % 2 == 0)?;
        let members = (0..l.len() / 2).map(|i| {
            let body = l.get(2 * i + 1)?;
            let leaf = body.as_serial().is_some() || body.as_str().is_some();
            Some((index_of(l.get(2 * i)?)?, body.clone())).filter(|_| leaf)
        });
        members.collect()
    }

    /// A frame member as the value the tree reader sees.
    fn body_value(body: Body<'_>) -> Value {
        match body {
            Body::Serial {
                compressed: false,
                bytes,
            } => Value::Serial(Serial::new(bytes.to_vec())),
            Body::Serial { bytes, .. } => Value::Serial(Serial::new_compressed(bytes.to_vec())),
            Body::Name(name) => Value::string(name),
        }
    }

    /// A two-member frame whose second member carries wire id `id`.
    fn frame_with_id(id: f64) -> Value {
        let serial = |b: u8| Value::Serial(Serial::new(vec![b; 3]));
        Value::list(vec![
            Value::scalar(7.0),
            serial(1),
            Value::scalar(id),
            Value::string("pb-00009.bin"),
        ])
    }

    #[test]
    fn job_frames_round_trip_and_junk_is_refused() {
        let members = [
            (
                7,
                Body::Serial {
                    compressed: false,
                    bytes: &[1, 2, 3],
                },
            ),
            (9, Body::Name("dir/pb-00009.bin")),
            (
                10,
                Body::Serial {
                    compressed: true,
                    bytes: &[4],
                },
            ),
        ];
        let wire = frame_of(&members);
        assert_eq!(decode_frame(&wire).unwrap(), members);
        // The writer's bytes are the tree's bytes.
        let tree = members
            .iter()
            .flat_map(|&(id, body)| [Value::scalar(id as f64), body_value(body)]);
        assert_eq!(
            wire,
            xdrser::serialize_to_bytes(&Value::list(tree.collect()))
        );
        // A serial member costs its header around the padded bytes.
        let one = &members[..1];
        assert_eq!(
            frame_of(one).len(),
            FRAME_HEADER_BYTES + MEMBER_HEADER_BYTES + 3usize.next_multiple_of(4)
        );
        for junk in [
            Value::scalar(1.0),
            Value::empty_matrix(),
            Value::list(vec![]),
            Value::list(vec![Value::scalar(1.0)]),
            Value::list(vec![Value::scalar(1.0), Value::scalar(2.0)]),
            // A body that is neither a serial nor one name.
            Value::list(vec![Value::scalar(1.0), Value::boolean(true)]),
            Value::list(vec![
                Value::scalar(1.0),
                Value::Str(nspval::StrMatrix::row(vec!["a".into(), "b".into()])),
            ]),
            // A wire id that is no index (and must not read as id 0).
            frame_with_id(f64::NAN),
            frame_with_id(-1.0),
            frame_with_id(7.5),
            frame_with_id(f64::INFINITY),
        ] {
            let wire = xdrser::serialize_to_bytes(&junk);
            let refused = decode_frame(&wire);
            assert!(matches!(refused, Err(FarmError::Protocol(_))), "{junk}");
        }
    }

    #[test]
    fn job_frame_walker_agrees_with_the_tree_on_a_mutation_corpus() {
        let serials: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i; 5 + i as usize]).collect();
        let names: Vec<String> = (0..6).map(|i| format!("dir/pb-{i:05}.bin")).collect();
        // Serial and name members, alternating.
        let members: Vec<(usize, Body<'_>)> = (0..6)
            .map(|i| {
                let body = match i % 2 {
                    0 => Body::Serial {
                        compressed: i % 4 == 2,
                        bytes: &serials[i],
                    },
                    _ => Body::Name(&names[i]),
                };
                (i + 40, body)
            })
            .collect();
        let bytes = frame_of(&members);
        // Same verdict, same members — and never a panic or an
        // allocation sized from a count word the bytes cannot back.
        let check = |b: &[u8]| {
            let walked = decode_frame(b).ok().map(|m| {
                m.into_iter()
                    .map(|(id, body)| (id, body_value(body)))
                    .collect::<Vec<_>>()
            });
            assert_eq!(walked, decode_frame_via_tree(b), "{b:?}");
        };
        check(&bytes);
        for cut in 0..bytes.len() {
            check(&bytes[..cut]);
        }
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for _ in 0..2_000 {
            let mut m = bytes.clone();
            let at = next() as usize % m.len();
            m[at] = next() as u8;
            check(&m);
            // A whole word, the way a wrong tag or length would read.
            let mut m = bytes.clone();
            let at = (next() as usize % (m.len() / 4)) * 4;
            let word = [0, 1, 3, 6, u32::MAX, next() as u32 % 64][next() as usize % 6];
            m[at..at + 4].copy_from_slice(&word.to_be_bytes());
            check(&m);
        }
    }

    fn index_of(v: &Value) -> Option<usize> {
        index_of_f64(v.as_scalar()?)
    }

    /// The reply reader on the bytes of `v`: what a slave that sent the
    /// tree `v` is taken to have said.
    fn decode_batch_reply(v: &Value) -> Result<Vec<Answer>, FarmError> {
        decode_reply(&xdrser::serialize_to_bytes(v))
    }

    /// The reference reader: materialise the message, then read the
    /// columns out of the tree.
    fn decode_reply_via_tree(bytes: &[u8]) -> Option<Vec<Answer>> {
        let v = xdrser::unserialize_bytes(bytes).ok()?;
        let l = v.as_list().filter(|l| l.len() == 5)?;
        let ids = l.get(0)?.as_matrix()?.data();
        let prices = l.get(1)?.as_matrix()?.data();
        let errors = l.get(2)?.as_matrix()?.data();
        let has_error = match l.get(3)? {
            Value::Bool(b) => b.data(),
            _ => return None,
        };
        let n = ids.len();
        if prices.len() != n || errors.len() != n || has_error.len() != n {
            return None;
        }
        let mut answers = (0..n)
            .map(|i| {
                Some(Answer::Priced {
                    job: index_of_f64(ids[i])?,
                    price: prices[i],
                    std_error: has_error[i].then_some(errors[i]),
                })
            })
            .collect::<Option<Vec<Answer>>>()?;
        for f in l.get(4)?.as_list()?.iter() {
            let f = f.as_list().filter(|f| f.len() == 2)?;
            let slot = answers.get_mut(index_of(f.get(0)?)?)?;
            *slot = Answer::failed(slot.job(), f.get(1)?.as_str()?);
        }
        Some(answers)
    }

    /// `[ids, prices, std_errors, has_std_error, failures]` by hand.
    fn reply(
        ids: &[f64],
        prices: &[f64],
        errors: &[f64],
        mask: &[bool],
        failures: Vec<Value>,
    ) -> Value {
        Value::list(vec![
            Value::Real(Matrix::row(ids.to_vec())),
            Value::Real(Matrix::row(prices.to_vec())),
            Value::Real(Matrix::row(errors.to_vec())),
            Value::Bool(BoolMatrix::row(mask.to_vec())),
            Value::list(failures),
        ])
    }

    #[test]
    fn inconsistent_batch_replies_are_protocol_errors() {
        let failure = |member: f64| Value::list(vec![Value::scalar(member), Value::string("why")]);
        let two = [1.0, 2.0];
        let ok = reply(&two, &two, &two, &[true, false], vec![failure(1.0)]);
        assert_eq!(
            decode_batch_reply(&ok).unwrap(),
            [
                Answer::Priced {
                    job: 1,
                    price: 1.0,
                    std_error: Some(1.0)
                },
                Answer::failed(2, "why"),
            ]
        );
        for bad in [
            // Columns that disagree in length.
            reply(&two, &[1.0], &two, &[true, false], vec![]),
            reply(&two, &two, &[1.0, 2.0, 3.0], &[true, false], vec![]),
            reply(&two, &two, &two, &[true], vec![]),
            // An id that is no job's index (and must not read as job 0).
            reply(&[1.0, f64::NAN], &two, &two, &[true, false], vec![]),
            reply(&[-1.0, 2.0], &two, &two, &[true, false], vec![]),
            reply(&[1.0, 2.5], &two, &two, &[true, false], vec![]),
            reply(&[f64::INFINITY, 2.0], &two, &two, &[true, false], vec![]),
            reply(&[1.0, -0.5], &two, &two, &[true, false], vec![failure(1.0)]),
            // A failure naming a member the frame does not have.
            reply(&two, &two, &two, &[true, false], vec![failure(2.0)]),
            reply(&two, &two, &two, &[true, false], vec![failure(-1.0)]),
            reply(&two, &two, &two, &[true, false], vec![failure(0.5)]),
            reply(&two, &two, &two, &[true, false], vec![failure(f64::NAN)]),
            reply(&two, &two, &two, &[true, false], vec![Value::scalar(0.0)]),
            // Not a five-column frame at all — the old list of hashes.
            Value::list(vec![Value::Hash({
                let mut h = Hash::new();
                h.set("job", Value::scalar(1.0));
                h.set("failed", Value::string("x"));
                h
            })]),
            Value::scalar(1.0),
        ] {
            assert!(
                matches!(decode_batch_reply(&bad), Err(FarmError::Protocol(_))),
                "{bad}"
            );
        }
    }

    #[test]
    fn batch_reply_decoder_survives_a_mutation_corpus() {
        let answers = [
            Answer::Priced {
                job: 40,
                price: 1.5,
                std_error: None,
            },
            Answer::failed(41, "compute failed: unsupported"),
            Answer::Priced {
                job: 42,
                price: -2.5,
                std_error: Some(0.125),
            },
        ];
        let bytes = xdrser::serialize_to_bytes(&batch_reply_value(&answers));
        // Never a panic: a typed error from either layer, or answers.
        let decode = |b: &[u8]| {
            xdrser::unserialize_bytes(b)
                .ok()
                .map(|v| decode_batch_reply(&v))
        };
        assert_eq!(decode(&bytes).unwrap().unwrap(), answers);
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_none(), "prefix {cut} decoded");
        }
        let mut rng = 0xD1B5_4A32_D192_ED03u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for _ in 0..4_000 {
            let mut m = bytes.clone();
            let at = next() as usize % m.len();
            m[at] = next() as u8;
            if let Some(Ok(back)) = decode(&m) {
                assert_eq!(back.len(), answers.len());
            }
            // A whole word, the way a wrong tag, shape or length reads.
            let mut m = bytes.clone();
            let at = (next() as usize % (m.len() / 4)) * 4;
            let word = [0, 1, 2, 4, u32::MAX, next() as u32 % 8][next() as usize % 6];
            m[at..at + 4].copy_from_slice(&word.to_be_bytes());
            if let Some(Ok(back)) = decode(&m) {
                // Whatever decodes has one answer per id column entry.
                let ids = xdrser::unserialize_bytes(&m).unwrap();
                let n = ids
                    .as_list()
                    .unwrap()
                    .get(0)
                    .unwrap()
                    .as_matrix()
                    .unwrap()
                    .len();
                assert_eq!(back.len(), n);
            }
        }
    }

    /// An answer's fields with the floats as bits, so NaN compares equal.
    fn bits(answers: Vec<Answer>) -> Vec<(usize, u64, Option<u64>, Option<String>)> {
        answers
            .into_iter()
            .map(|a| match a {
                Answer::Priced {
                    job,
                    price,
                    std_error,
                } => (job, price.to_bits(), std_error.map(f64::to_bits), None),
                Answer::Failed { job, why } => (job, 0, None, Some(why)),
            })
            .collect()
    }

    #[test]
    fn reply_walker_agrees_with_the_tree_on_a_mutation_corpus() {
        let answers = [
            Answer::Priced {
                job: 40,
                price: 1.5,
                std_error: None,
            },
            Answer::failed(41, "compute failed: unsupported"),
            Answer::Priced {
                job: 42,
                price: -2.5,
                std_error: Some(0.125),
            },
            Answer::failed(43, "x"),
        ];
        let bytes = encode_reply(&answers, Vec::new());
        // Same verdict, same answers — and never a panic or an
        // allocation sized from a count word the bytes cannot back.
        let check = |b: &[u8]| {
            let walked = decode_reply(b).ok().map(bits);
            assert_eq!(walked, decode_reply_via_tree(b).map(bits), "{b:?}");
            walked.is_some()
        };
        assert!(check(&bytes));
        for cut in 0..bytes.len() {
            assert!(!check(&bytes[..cut]), "prefix {cut} decoded");
        }
        let mut rng = 0x94D0_49BB_1331_11EBu64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut decoded = 0;
        for _ in 0..4_000 {
            let mut m = bytes.clone();
            let at = next() as usize % m.len();
            m[at] = next() as u8;
            decoded += check(&m) as usize;
            // A whole word, the way a wrong tag, shape or length reads.
            let mut m = bytes.clone();
            let at = (next() as usize % (m.len() / 4)) * 4;
            let word = [0, 1, 2, 4, 5, u32::MAX, next() as u32 % 8][next() as usize % 7];
            m[at..at + 4].copy_from_slice(&word.to_be_bytes());
            decoded += check(&m) as usize;
        }
        // The corpus reaches both verdicts: mutated prices and texts
        // still read.
        assert!(decoded > 0);
    }
}
