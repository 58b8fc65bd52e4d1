#include "workload/generator.h"

#include <algorithm>

#include "util/log.h"

namespace stretch
{

namespace
{

/** Deterministic 64-bit hash for static-program classification. */
std::uint64_t
hash64(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    x ^= x >> 33;
    return x;
}

double
hashUnit(std::uint64_t x)
{
    return static_cast<double>(hash64(x) >> 11) * 0x1.0p-53;
}

// Salts for the independent per-pc static properties.
constexpr std::uint64_t saltClass = 0x11c1a55;
constexpr std::uint64_t saltRole = 0x33701e;
constexpr std::uint64_t saltHard = 0xb1a5ed;
constexpr std::uint64_t saltBias = 0x77;
constexpr std::uint64_t saltCall = 0xca11;
constexpr std::uint64_t saltRet = 0x12e7;
constexpr std::uint64_t saltFar = 0xfa12;

} // namespace

TraceGenerator::TraceGenerator(const SynthProfile &profile, std::uint64_t seed,
                               unsigned asid)
    : prof(profile), rng(seed, 0x77a5),
      base(static_cast<Addr>(asid + 1) << 40),
      pc(base + codeRegion),
      codeBlocks(std::max<std::uint64_t>(1, prof.codeBytes / cacheBlockBytes)),
      codeZipf(codeBlocks, prof.codeZipfTheta),
      chaseReg(std::max(1u, prof.chaseChains), noReg),
      streamCursor(streamSlots, 0)
{
    STRETCH_ASSERT(prof.chaseChains <= 16, "too many chase chains");
    recentDests.fill(noReg);
    // Chase chains own dedicated architectural registers [8, 8+chains) so
    // chain pointers are never clobbered by the rotating allocator; all
    // other destinations rotate above them.
    for (std::size_t c = 0; c < chaseReg.size(); ++c)
        chaseReg[c] = static_cast<std::uint8_t>(8 + c);
    destCursor = static_cast<std::uint8_t>(8 + chaseReg.size());

    STRETCH_ASSERT(prof.loadFrac + prof.storeFrac + prof.branchFrac +
                       prof.fpFrac + prof.mulFrac <= 1.0 + 1e-9,
                   "instruction mix of '", prof.name, "' exceeds 1.0");
    STRETCH_ASSERT(prof.hotFrac + prof.warmFrac <= 1.0 + 1e-9,
                   "region fractions of '", prof.name, "' exceed 1.0");
}

std::uint8_t
TraceGenerator::allocDest()
{
    std::uint8_t d = destCursor;
    std::uint8_t floor_reg = static_cast<std::uint8_t>(8 + chaseReg.size());
    destCursor = (destCursor + 1u < numArchRegs) ? destCursor + 1 : floor_reg;
    recentDests[recentHead] = d;
    recentHead = (recentHead + 1) % recentDests.size();
    lastDest = d;
    return d;
}

std::uint8_t
TraceGenerator::recentSource(unsigned max_distance)
{
    if (max_distance == 0)
        return static_cast<std::uint8_t>(rng.below(8));
    unsigned dist = 1 + static_cast<unsigned>(rng.below(max_distance));
    if (dist > recentDests.size())
        dist = static_cast<unsigned>(recentDests.size());
    std::size_t idx =
        (recentHead + recentDests.size() - dist) % recentDests.size();
    std::uint8_t r = recentDests[idx];
    return r == noReg ? static_cast<std::uint8_t>(rng.below(8)) : r;
}

Addr
TraceGenerator::farJumpTarget()
{
    std::uint64_t rank = codeZipf.sample(rng);
    // Scatter popularity ranks across the footprint so hot blocks are not
    // physically adjacent (matters for L1-I set behaviour).
    std::uint64_t blk = (rank * 0x9e3779b97f4a7c15ull) % codeBlocks;
    return codeBase() + blk * cacheBlockBytes;
}

void
TraceGenerator::genBranch()
{
    op.cls = OpClass::Branch;
    op.dest = noReg;
    // Branch condition consumes a recent value: data-dependent control.
    op.src1 = recentSource(prof.depDistance);
    op.src2 = noReg;

    // Return sites are static: always taken, target from the call stack
    // (the RAS predicts them), falling back to a far jump on an empty
    // stack. Keeping the direction constant makes them predictable, as
    // real returns are.
    if (hashUnit(op.pc ^ saltRet) < prof.callFrac) {
        op.taken = true;
        op.isReturn = true;
        if (!returnStack.empty()) {
            op.target = returnStack.back();
            returnStack.pop_back();
        } else {
            op.target = farJumpTarget();
        }
        return;
    }

    bool hard = hashUnit(op.pc ^ saltHard) < prof.hardBranchFrac;
    if (hard) {
        op.taken = rng.chance(0.5);
    } else {
        // Predictable site: a strong static bias with rare flips (loop
        // exits, error paths) occurring about once every loopPeriod
        // visits. A bias predictor achieves ~(1 - 1/loopPeriod) accuracy,
        // the behaviour real codes show after warmup. Half of the sites
        // are loop-like (biased taken), half check-like (biased not).
        bool biased_taken = hashUnit(op.pc ^ saltBias) < 0.5;
        bool flip = rng.chance(1.0 / std::max(2u, prof.loopPeriod));
        op.taken = biased_taken ? !flip : flip;
    }

    if (!op.taken)
        return;

    // Call? (static call sites)
    if (hashUnit(op.pc ^ saltCall) < prof.callFrac &&
        returnStack.size() < 16) {
        op.isCall = true;
        returnStack.push_back(op.pc + 4);
        op.target = farJumpTarget();
        return;
    }

    // Short-range targets are a static property of the site (what a BTB
    // exploits); far jumps re-sample their destination every visit
    // (indirect-call/dispatch behaviour), which both pressures the BTB and
    // keeps the control-flow walk ergodic over the code footprint.
    bool far_site = hashUnit(op.pc ^ saltFar) < prof.jumpFarFrac;
    // A small dynamic escape hazard (rare indirect paths) guarantees the
    // control-flow walk cannot be trapped in a far-jump-free basin.
    if (far_site || rng.chance(0.25 * prof.jumpFarFrac)) {
        op.target = farJumpTarget();
    } else if (hashUnit(op.pc ^ 0x100b) < 0.7) {
        // Loop back a short, site-fixed distance.
        Addr span = cacheBlockBytes *
                    (1 + (hash64(op.pc ^ 0xbace) % 4));
        op.target = (op.pc >= codeBase() + span) ? op.pc - span : codeBase();
    } else {
        // Short forward skip.
        op.target = op.pc + 4 * (2 + (hash64(op.pc ^ 0x5217) % 16));
    }
}

void
TraceGenerator::genLoad()
{
    op.cls = OpClass::Load;
    // The region is drawn per visit (a load instruction touches hot
    // structures most of the time and cold data occasionally), while the
    // *role* of a cold access — chase, stream, or random — is a static
    // property of the site, preserving what chains, BTBs and PC-indexed
    // prefetchers key on.
    double u = rng.uniform();
    if (u >= prof.hotFrac + prof.warmFrac) {
        double role = hashUnit(op.pc ^ saltRole);
        if (role < prof.chaseFrac) {
            // Chase load: reads and rewrites its chain's dedicated pointer
            // register, serialising all misses of that chain.
            std::size_t chain = hash64(op.pc ^ 0xc4a1) % chaseReg.size();
            op.src1 = chaseReg[chain];
            op.src2 = noReg;
            op.isChase = true;
            Addr off =
                rng.below(std::max<std::uint64_t>(prof.coldBytes, 8) / 8) * 8;
            op.effAddr = coldBase() + off;
            op.dest = chaseReg[chain];
            lastDest = op.dest;
            return;
        }
        op.src1 = static_cast<std::uint8_t>(rng.below(8));
        op.src2 = noReg;
        if (role < prof.chaseFrac + (1.0 - prof.chaseFrac) * prof.streamFrac) {
            // Streaming load: a per-site cursor advancing by a fixed
            // stride — exactly what the PC-indexed prefetcher detects.
            std::size_t slot = hash64(op.pc ^ 0x57e3) & (streamSlots - 1);
            Addr stride = cacheBlockBytes
                          << (hash64(op.pc ^ 0x57e4) % 2); // 64B or 128B
            streamCursor[slot] =
                (streamCursor[slot] + stride) % prof.coldBytes;
            op.effAddr = coldBase() + streamCursor[slot];
        } else {
            Addr off =
                rng.below(std::max<std::uint64_t>(prof.coldBytes, 8) / 8) * 8;
            op.effAddr = coldBase() + off;
        }
        op.dest = allocDest();
        return;
    }

    op.src1 = static_cast<std::uint8_t>(rng.below(8));
    op.src2 = noReg;
    if (u < prof.hotFrac) {
        Addr off =
            rng.below(std::max<std::uint64_t>(prof.hotBytes, 8) / 8) * 8;
        op.effAddr = hotBase() + off;
    } else {
        Addr off =
            rng.below(std::max<std::uint64_t>(prof.warmBytes, 8) / 8) * 8;
        op.effAddr = warmBase() + off;
    }
    op.dest = allocDest();
}

void
TraceGenerator::genStore()
{
    op.cls = OpClass::Store;
    op.src1 = static_cast<std::uint8_t>(rng.below(8)); // address base
    op.src2 = recentSource(prof.depDistance);          // data value
    op.dest = noReg;
    double u = rng.uniform();
    if (u < prof.hotFrac) {
        Addr off =
            rng.below(std::max<std::uint64_t>(prof.hotBytes, 8) / 8) * 8;
        op.effAddr = hotBase() + off;
    } else if (u < prof.hotFrac + prof.warmFrac) {
        Addr off =
            rng.below(std::max<std::uint64_t>(prof.warmBytes, 8) / 8) * 8;
        op.effAddr = warmBase() + off;
    } else if (hashUnit(op.pc ^ 0x5704) < prof.streamFrac) {
        std::size_t slot = hash64(op.pc ^ 0x57e5) & (streamSlots - 1);
        streamCursor[slot] =
            (streamCursor[slot] + cacheBlockBytes) % prof.coldBytes;
        op.effAddr = coldBase() + streamCursor[slot];
    } else {
        Addr off =
            rng.below(std::max<std::uint64_t>(prof.coldBytes, 8) / 8) * 8;
        op.effAddr = coldBase() + off;
    }
}

void
TraceGenerator::genAlu(OpClass cls)
{
    op.cls = cls;
    if (rng.chance(prof.longChainFrac) && lastDest != noReg) {
        op.src1 = lastDest;
    } else {
        op.src1 = recentSource(prof.depDistance);
    }
    op.src2 = rng.chance(0.5) ? recentSource(prof.depDistance) : noReg;
    op.dest = allocDest();
}

const MicroOp &
TraceGenerator::next()
{
    op = MicroOp{};
    op.pc = pc;

    // The instruction at a pc is a static property of the program: the
    // same pc always holds the same operation class. This preserves the
    // locality that BTBs and PC-indexed prefetchers rely on.
    double u = hashUnit(pc ^ saltClass);
    double acc = prof.loadFrac;
    if (u < acc) {
        genLoad();
    } else if (u < (acc += prof.storeFrac)) {
        genStore();
    } else if (u < (acc += prof.branchFrac)) {
        genBranch();
    } else if (u < (acc += prof.fpFrac)) {
        genAlu(OpClass::FpAlu);
    } else if (u < (acc += prof.mulFrac)) {
        genAlu(OpClass::IntMul);
    } else {
        genAlu(OpClass::IntAlu);
    }

    // Advance the program counter.
    if (op.cls == OpClass::Branch && op.taken) {
        pc = op.target;
    } else {
        pc += 4;
    }
    // Wrap within the code footprint.
    if (pc < codeBase() || pc >= codeBase() + prof.codeBytes)
        pc = codeBase() + (pc % std::max<std::uint64_t>(prof.codeBytes, 4));
    // Keep pc 4-byte aligned.
    pc &= ~Addr(3);

    ++emitted;
    return op;
}

std::vector<Addr>
TraceGenerator::steadyStateBlocks() const
{
    std::vector<Addr> blocks;
    auto addRegion = [&blocks](Addr region_base, std::uint64_t bytes) {
        for (Addr a = region_base; a < region_base + bytes;
             a += cacheBlockBytes) {
            blocks.push_back(a);
        }
    };
    addRegion(codeBase(), prof.codeBytes);
    addRegion(hotBase(), prof.hotBytes);
    addRegion(warmBase(), prof.warmBytes);
    return blocks;
}

} // namespace stretch
