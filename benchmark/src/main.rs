#[global_allocator]
static ALLOCATOR: bepi_benchmark::alloc::Counting = bepi_benchmark::alloc::Counting;

fn main() {
    std::process::exit(bepi_benchmark::cli::main(
        std::env::args().skip(1).collect(),
    ));
}
