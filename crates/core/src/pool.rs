//! Shared payload handles for the wire protocol.
//!
//! The simulator clones a message once per destination, and the transport
//! layer clones it again per retry attempt — so a commit against a
//! 5-member write quorum with two retries would deep-copy its read and
//! write sets fifteen times. A [`Payload`] makes every one of those clones
//! a reference-count bump on a single allocation: the variable-length
//! payload of a [`Msg`](crate::Msg) is built exactly once (`vec.into()`),
//! frozen, and shared by every copy in flight.
//!
//! Payloads are `Rc<[T]>` while object values ([`ObjVal`](crate::ObjVal))
//! share their contents as `Arc<[T]>`: a payload lives and dies inside one
//! single-threaded simulation, so the non-atomic count is enough. Values
//! are also what the threaded backend (`qrdtm-par`) stores in tables shared
//! between threads — it never sees a payload — so they must be `Send +
//! Sync`.

use std::rc::Rc;

/// A frozen, cheaply clonable message payload. Immutable (`Rc<[T]>`, not
/// `Rc<Vec<T>>`): a payload cannot be mutated through an alias once it is
/// on the wire, the same property a real serialized packet has.
pub type Payload<T> = Rc<[T]>;
