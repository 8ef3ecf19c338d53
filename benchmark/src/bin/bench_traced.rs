//! The traced binary: the same program with the counting allocator
//! installed, so the per-layer loops can report allocations. End-to-end
//! metrics are never taken from here.

#[global_allocator]
static ALLOC: testkit_alloc::CountingAllocator = testkit_alloc::CountingAllocator;

fn main() -> std::process::ExitCode {
    crdt_benchmark::main()
}
