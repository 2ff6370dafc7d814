/**
 * @file
 * Host-speed probe of the host-time benchmark. It times a fixed mix of
 * pointer chasing over 8 MB, integer arithmetic and first-touch page
 * faults, and prints the seconds of each part and their sum as one
 * JSON object. run.py runs it in its own process just before each
 * pass, so it shares no memory with the pass, and it links nothing
 * from the simulator, so no change to the simulator moves it.
 */

#include <sys/mman.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace {

using Clock = std::chrono::steady_clock;

volatile std::uint64_t g_sink = 0;

double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

void*
mapAnonymous(std::size_t bytes)
{
    void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) {
        std::perror("hostprobe: mmap");
        std::exit(1);
    }
    return p;
}

} // namespace

int
main()
{
    constexpr std::uint32_t kEntries = 1u << 21;
    auto* next = static_cast<std::uint32_t*>(
        mapAnonymous(kEntries * sizeof(std::uint32_t)));
    for (std::uint32_t i = 0; i < kEntries; ++i)
        next[i] = i;
    // Sattolo's shuffle (one cycle through every entry) driven by an
    // LCG's high bits, whose residual locality keeps each step mostly
    // in the last-level cache rather than in DRAM and the page walker.
    std::uint64_t lcg = 12345;
    for (std::uint32_t i = kEntries - 1; i > 0; --i) {
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        std::swap(next[i], next[(lcg >> 33) % i]);
    }
    // Finish the shuffle before the clock starts: without this barrier
    // the compiler may sink its stores into the timed interval. Each
    // part below publishes its result before the next one starts, for
    // the same reason.
    asm volatile("" : : "g"(next) : "memory");

    auto t = Clock::now();
    std::uint32_t x = 0;
    for (int k = 0; k < 1000000; ++k)
        x = next[x];
    g_sink = x;
    const double chase = secondsSince(t);

    t = Clock::now();
    std::uint64_t h = 1;
    for (std::uint64_t k = 0; k < 20000000; ++k) {
        h = h * 6364136223846793005ULL + k;
        h ^= (h >> 7) & (0 - ((h >> 8) & 1)); // branch-free
    }
    g_sink = h;
    const double compute = secondsSince(t);

    t = Clock::now();
    constexpr std::size_t kBytes = std::size_t{32} << 20;
    auto* fresh = static_cast<volatile char*>(mapAnonymous(kBytes));
    const std::size_t page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    for (std::size_t off = 0; off < kBytes; off += page)
        fresh[off] = 1;
    const double fault = secondsSince(t);

    std::printf("{\"probe_s\": %.9f, \"chase_s\": %.9f, \"compute_s\": %.9f, "
                "\"fault_s\": %.9f}\n",
                chase + compute + fault, chase, compute, fault);
    return 0;
}
