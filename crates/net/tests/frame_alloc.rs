//! What reading one TCP frame allocates, counted by a per-thread allocator.
//!
//! A length prefix is a claim, not bytes: a peer announcing
//! [`MAX_FRAME_BYTES`] and then sending a handful of bytes must cost the
//! reader what arrived, not 64 MiB reserved up front. A whole model frame is
//! still read into one body buffer.

use fs_monitor::MonitorHandle;
use fs_net::tcp::{read_frame, write_frame, TcpError, MAX_FRAME_BYTES};
use fs_net::{Message, MessageKind, Payload, SERVER_ID};
use fs_tensor::{ParamMap, Tensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{ErrorKind, Write};
use std::net::{Shutdown, TcpListener, TcpStream};

/// Counts the allocations (and reallocations) the calling thread makes while
/// it has armed it, and the bytes they asked for.
struct CountingAlloc;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    if ARMED.with(Cell::get) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        BYTES.with(|n| n.set(n.get() + bytes));
    }
}

/// Runs `call` with the counter armed; returns its result, the allocations
/// it made and the bytes they requested.
fn counting<R>(call: impl FnOnce() -> R) -> (R, usize, usize) {
    let before = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    ARMED.with(|a| a.set(true));
    let out = call();
    ARMED.with(|a| a.set(false));
    (
        out,
        ALLOCATIONS.with(Cell::get) - before.0,
        BYTES.with(Cell::get) - before.1,
    )
}

// SAFETY: every method forwards to `System` unchanged; the counters are
// const-initialised thread-local `Cell`s, which allocate nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same contract as the caller's
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same contract as the caller's
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` with this layout
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A connected loopback pair: (the writing side, the reading side).
fn socket_pair() -> (TcpStream, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let writer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (reader, _) = listener.accept().unwrap();
    (writer, reader)
}

#[test]
fn a_truncated_max_size_frame_allocates_what_arrived() {
    let (mut writer, mut reader) = socket_pair();
    writer.write_all(&MAX_FRAME_BYTES.to_le_bytes()).unwrap();
    writer.write_all(&[7u8; 16]).unwrap();
    writer.shutdown(Shutdown::Write).unwrap();
    let monitor = MonitorHandle::null();
    let (got, _, bytes) = counting(|| read_frame(&mut reader, &monitor));
    match got {
        Err(TcpError::Io(e)) => assert_eq!(e.kind(), ErrorKind::UnexpectedEof),
        other => panic!("a truncated frame must be an io error, got {other:?}"),
    }
    assert!(
        bytes < 1 << 20,
        "reading 20 bytes of an announced {MAX_FRAME_BYTES}-byte frame asked for {bytes} bytes"
    );
}

#[test]
fn a_whole_model_frame_reads_back_in_one_body_buffer() {
    // ≈ 30 KB on the wire, under the first read's reservation
    let mut params = ParamMap::new();
    params.insert("w", Tensor::from_vec(vec![7_500], vec![0.5; 7_500]));
    let payload = Payload::Update {
        params,
        start_version: 3,
        n_samples: 40,
        n_steps: 6,
    };
    let msg = Message::new(5, SERVER_ID, MessageKind::Updates, 3, payload);
    let (mut writer, mut reader) = socket_pair();
    let monitor = MonitorHandle::null();
    write_frame(&mut writer, &msg, &monitor).unwrap();
    let (got, _, bytes) = counting(|| read_frame(&mut reader, &monitor));
    assert_eq!(got.unwrap(), msg);
    // the body once and the decoded tensor once, each ≈ 30 KB: a body
    // buffer grown by doubling would ask for about twice as much again
    assert!(bytes < 75_000, "a 30 KB frame asked for {bytes} bytes");
}
