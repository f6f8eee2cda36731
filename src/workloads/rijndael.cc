#include "workloads/rijndael.h"

#include "kernel/builder.h"
#include "util/log.h"
#include "util/random.h"
#include "workloads/trace_util.h"

namespace isrf {

uint8_t
aesGfMul(uint8_t a, uint8_t b)
{
    uint8_t p = 0;
    for (int i = 0; i < 8; i++) {
        if (b & 1)
            p ^= a;
        bool hi = a & 0x80;
        a = static_cast<uint8_t>(a << 1);
        if (hi)
            a ^= 0x1b;
        b >>= 1;
    }
    return p;
}

namespace {

uint8_t
gfInv(uint8_t a)
{
    if (a == 0)
        return 0;
    for (int b = 1; b < 256; b++) {
        if (aesGfMul(a, static_cast<uint8_t>(b)) == 1)
            return static_cast<uint8_t>(b);
    }
    panic("gfInv: no inverse for %u", a);
}

uint8_t
rotl8(uint8_t v, int n)
{
    return static_cast<uint8_t>((v << n) | (v >> (8 - n)));
}

} // namespace

const std::array<uint8_t, 256> &
aesSbox()
{
    static const std::array<uint8_t, 256> sbox = [] {
        std::array<uint8_t, 256> t{};
        for (int x = 0; x < 256; x++) {
            uint8_t b = gfInv(static_cast<uint8_t>(x));
            t[x] = static_cast<uint8_t>(b ^ rotl8(b, 1) ^ rotl8(b, 2) ^
                                        rotl8(b, 3) ^ rotl8(b, 4) ^ 0x63);
        }
        return t;
    }();
    return sbox;
}

const std::array<uint32_t, 256> &
aesTe(int i)
{
    static const std::array<std::array<uint32_t, 256>, 4> tables = [] {
        std::array<std::array<uint32_t, 256>, 4> t{};
        const auto &sb = aesSbox();
        for (int x = 0; x < 256; x++) {
            uint32_t s = sb[x];
            uint32_t s2 = aesGfMul(static_cast<uint8_t>(s), 2);
            uint32_t s3 = s2 ^ s;
            t[0][x] = (s2 << 24) | (s << 16) | (s << 8) | s3;
            t[1][x] = (s3 << 24) | (s2 << 16) | (s << 8) | s;
            t[2][x] = (s << 24) | (s3 << 16) | (s2 << 8) | s;
            t[3][x] = (s << 24) | (s << 16) | (s3 << 8) | s2;
        }
        return t;
    }();
    return tables[i];
}

std::array<uint32_t, 44>
aesExpandKey128(const std::array<uint8_t, 16> &key)
{
    std::array<uint32_t, 44> w{};
    const auto &sb = aesSbox();
    for (int i = 0; i < 4; i++) {
        w[i] = (static_cast<uint32_t>(key[4 * i]) << 24) |
            (static_cast<uint32_t>(key[4 * i + 1]) << 16) |
            (static_cast<uint32_t>(key[4 * i + 2]) << 8) |
            key[4 * i + 3];
    }
    uint8_t rcon = 1;
    for (int i = 4; i < 44; i++) {
        uint32_t t = w[i - 1];
        if (i % 4 == 0) {
            t = (t << 8) | (t >> 24);  // RotWord
            t = (static_cast<uint32_t>(sb[(t >> 24) & 0xff]) << 24) |
                (static_cast<uint32_t>(sb[(t >> 16) & 0xff]) << 16) |
                (static_cast<uint32_t>(sb[(t >> 8) & 0xff]) << 8) |
                sb[t & 0xff];
            t ^= static_cast<uint32_t>(rcon) << 24;
            rcon = aesGfMul(rcon, 2);
        }
        w[i] = w[i - 4] ^ t;
    }
    return w;
}

std::array<uint8_t, 16>
aesEncryptBlock128(const std::array<uint32_t, 44> &rk,
                   const std::array<uint8_t, 16> &plain,
                   std::vector<std::array<uint8_t, 16>> *idxTrace,
                   std::vector<std::array<uint32_t, 4>> *stateTrace)
{
    uint32_t s[4];
    for (int i = 0; i < 4; i++) {
        s[i] = (static_cast<uint32_t>(plain[4 * i]) << 24) |
            (static_cast<uint32_t>(plain[4 * i + 1]) << 16) |
            (static_cast<uint32_t>(plain[4 * i + 2]) << 8) |
            plain[4 * i + 3];
        s[i] ^= rk[i];
    }
    auto record = [&](const std::array<uint8_t, 16> &idx,
                      const uint32_t t[4]) {
        if (idxTrace)
            idxTrace->push_back(idx);
        if (stateTrace)
            stateTrace->push_back({t[0], t[1], t[2], t[3]});
    };

    for (int r = 1; r <= 9; r++) {
        std::array<uint8_t, 16> idx{};
        for (int i = 0; i < 4; i++) {
            idx[0 + i] = static_cast<uint8_t>(s[i] >> 24);
            idx[4 + i] = static_cast<uint8_t>(s[(i + 1) % 4] >> 16);
            idx[8 + i] = static_cast<uint8_t>(s[(i + 2) % 4] >> 8);
            idx[12 + i] = static_cast<uint8_t>(s[(i + 3) % 4]);
        }
        uint32_t t[4];
        for (int i = 0; i < 4; i++) {
            t[i] = aesTe(0)[idx[0 + i]] ^ aesTe(1)[idx[4 + i]] ^
                aesTe(2)[idx[8 + i]] ^ aesTe(3)[idx[12 + i]] ^
                rk[4 * r + i];
        }
        record(idx, t);
        for (int i = 0; i < 4; i++)
            s[i] = t[i];
    }

    // Final round: SubBytes + ShiftRows + AddRoundKey (S-box only).
    const auto &sb = aesSbox();
    std::array<uint8_t, 16> idx{};
    uint32_t t[4];
    for (int i = 0; i < 4; i++) {
        idx[0 + i] = static_cast<uint8_t>(s[i] >> 24);
        idx[4 + i] = static_cast<uint8_t>(s[(i + 1) % 4] >> 16);
        idx[8 + i] = static_cast<uint8_t>(s[(i + 2) % 4] >> 8);
        idx[12 + i] = static_cast<uint8_t>(s[(i + 3) % 4]);
    }
    for (int i = 0; i < 4; i++) {
        t[i] = (static_cast<uint32_t>(sb[idx[0 + i]]) << 24) |
            (static_cast<uint32_t>(sb[idx[4 + i]]) << 16) |
            (static_cast<uint32_t>(sb[idx[8 + i]]) << 8) |
            sb[idx[12 + i]];
        t[i] ^= rk[40 + i];
    }
    record(idx, t);

    std::array<uint8_t, 16> out{};
    for (int i = 0; i < 4; i++) {
        out[4 * i] = static_cast<uint8_t>(t[i] >> 24);
        out[4 * i + 1] = static_cast<uint8_t>(t[i] >> 16);
        out[4 * i + 2] = static_cast<uint8_t>(t[i] >> 8);
        out[4 * i + 3] = static_cast<uint8_t>(t[i]);
    }
    return out;
}

std::vector<std::array<uint8_t, 16>>
aesCbcEncrypt128(const std::array<uint8_t, 16> &key,
                 const std::array<uint8_t, 16> &iv,
                 const std::vector<std::array<uint8_t, 16>> &blocks)
{
    auto rk = aesExpandKey128(key);
    std::vector<std::array<uint8_t, 16>> out;
    std::array<uint8_t, 16> prev = iv;
    for (const auto &blk : blocks) {
        std::array<uint8_t, 16> x{};
        for (int i = 0; i < 16; i++)
            x[i] = static_cast<uint8_t>(blk[i] ^ prev[i]);
        prev = aesEncryptBlock128(rk, x);
        out.push_back(prev);
    }
    return out;
}

KernelGraph
rijndaelRoundIdxGraph()
{
    KernelBuilder b("rijndael");
    auto in = b.seqIn("in");
    StreamRef te[4] = {b.idxlIn("te0"), b.idxlIn("te1"), b.idxlIn("te2"),
                       b.idxlIn("te3")};
    auto out = b.seqOut("out");

    // Round state carried in local register files across iterations
    // (one iteration = one AES round of this lane's CBC chain).
    Value s[4];
    for (int i = 0; i < 4; i++)
        s[i] = b.carryIn();
    auto pin = b.read(in);  // amortized plaintext injection

    Value v[4];
    for (int i = 0; i < 4; i++) {
        Value x0 = b.readIdx(te[0], b.ishr(s[i], b.constInt(24)));
        Value x1 = b.readIdx(te[1],
                             b.ishr(s[(i + 1) % 4], b.constInt(16)));
        Value x2 = b.readIdx(te[2],
                             b.ishr(s[(i + 2) % 4], b.constInt(8)));
        Value x3 = b.readIdx(te[3], s[(i + 3) % 4]);
        Value t = b.ixor(b.ixor(x0, x1), b.ixor(x2, x3));
        v[i] = b.ixor(t, b.constInt(0x5a5a5a5a));  // + round key
    }
    for (int i = 0; i < 4; i++)
        b.carryOut(s[i], v[i], 1);
    b.write(out, b.ixor(v[0], pin));  // amortized ciphertext emission
    return b.build();
}

KernelGraph
rijndaelRoundBaseGraph(bool firstRound, bool lastRound)
{
    KernelBuilder b("rijndael");
    Value st[4];
    if (firstRound) {
        auto in = b.seqIn("plain");
        for (int i = 0; i < 4; i++)
            st[i] = b.ixor(b.read(in), b.constInt(0x11111111));  // whiten
    } else {
        auto sin = b.seqIn("state_in");
        auto tv = b.seqIn("tvals");
        Value t[4];
        for (int i = 0; i < 4; i++) {
            Value x0 = b.read(tv);
            Value x1 = b.read(tv);
            Value x2 = b.read(tv);
            Value x3 = b.read(tv);
            t[i] = b.ixor(b.ixor(x0, x1), b.ixor(x2, x3));
        }
        for (int i = 0; i < 4; i++)
            st[i] = b.ixor(b.ixor(b.read(sin), t[i]),
                           b.constInt(0x22222222));
    }
    if (lastRound) {
        auto out = b.seqOut("cipher");
        for (int i = 0; i < 4; i++)
            b.write(out, st[i]);
    } else {
        auto sout = b.seqOut("state_out");
        auto iout = b.seqOut("idx_out");
        for (int i = 0; i < 4; i++)
            b.write(sout, st[i]);
        // Emit the 16 lookup indices for the next round's gather.
        for (int i = 0; i < 4; i++) {
            b.write(iout, b.ishr(st[i], b.constInt(24)));
            b.write(iout, b.ishr(st[(i + 1) % 4], b.constInt(16)));
            b.write(iout, b.ishr(st[(i + 2) % 4], b.constInt(8)));
            b.write(iout, st[(i + 3) % 4]);
        }
    }
    return b.build();
}

namespace {

/** Pack 16 bytes into 4 big-endian words. */
std::array<Word, 4>
blockWords(const std::array<uint8_t, 16> &blk)
{
    std::array<Word, 4> w{};
    for (int i = 0; i < 4; i++) {
        w[i] = (static_cast<Word>(blk[4 * i]) << 24) |
            (static_cast<Word>(blk[4 * i + 1]) << 16) |
            (static_cast<Word>(blk[4 * i + 2]) << 8) | blk[4 * i + 3];
    }
    return w;
}

} // namespace

WorkloadResult
runRijndael(const MachineConfig &machineCfg, const WorkloadOptions &opts)
{
    MachineConfig cfg = machineCfg;
    if (opts.separationOverride)
        cfg.inLaneSeparation = opts.separationOverride;
    Machine m;
    m.init(cfg);
    m.setCancel(opts.cancel);
    m.setCheckpoint(opts.checkpoint);

    WorkloadResult res;
    res.workload = "Rijndael";

    const SrfGeometry &g = cfg.srf;
    const bool indexed = cfg.srfMode != SrfMode::SequentialOnly;
    const bool cached = cfg.mem.cacheEnabled;
    const RijndaelParams params;
    const uint32_t B = params.blocksPerLane;
    const uint32_t lanes = g.lanes;
    const uint32_t totalBlocks = B * lanes;

    // --- key, plaintext, and functional encryption with traces ---
    std::array<uint8_t, 16> key{};
    Rng rng(opts.seed);
    for (auto &k : key)
        k = static_cast<uint8_t>(rng.below(256));
    auto rk = aesExpandKey128(key);

    std::vector<std::vector<std::array<uint8_t, 16>>> plain(lanes);
    std::vector<std::vector<std::array<uint8_t, 16>>> cipher(lanes);
    std::vector<std::vector<std::array<uint8_t, 16>>> idxTrace(lanes);
    std::vector<std::vector<std::array<uint32_t, 4>>> stateTrace(lanes);
    for (uint32_t l = 0; l < lanes; l++) {
        std::array<uint8_t, 16> prev{};  // per-lane IV
        for (int i = 0; i < 16; i++)
            prev[i] = static_cast<uint8_t>(l * 16 + i);
        for (uint32_t b = 0; b < B; b++) {
            std::array<uint8_t, 16> p{};
            for (auto &x : p)
                x = static_cast<uint8_t>(rng.below(256));
            plain[l].push_back(p);
            std::array<uint8_t, 16> x{};
            for (int i = 0; i < 16; i++)
                x[i] = static_cast<uint8_t>(p[i] ^ prev[i]);
            prev = aesEncryptBlock128(rk, x, &idxTrace[l],
                                      &stateTrace[l]);
            cipher[l].push_back(prev);
        }
    }

    // --- DRAM layout ---
    const uint64_t tableAddr = 0;  // 5 x 256 words
    const uint64_t plainAddr = 4096;
    const uint64_t cipherAddr = plainAddr + totalBlocks * 4;
    {
        std::vector<Word> tbl(5 * 256);
        for (int t = 0; t < 4; t++)
            for (int x = 0; x < 256; x++)
                tbl[t * 256 + x] = aesTe(t)[x];
        for (int x = 0; x < 256; x++)
            tbl[4 * 256 + x] = aesSbox()[x];
        m.mem().dram().fill(tableAddr, tbl);

        std::vector<Word> pw;
        for (uint32_t l = 0; l < lanes; l++)
            for (uint32_t b = 0; b < B; b++)
                for (Word w : blockWords(plain[l][b]))
                    pw.push_back(w);
        m.mem().dram().fill(plainAddr, pw);
    }

    StreamProgram prog(m);
    SlotId plainSlot = prog.addStream("plain", B * 4,
                                      StreamLayout::PerLane);
    SlotId cipherSlot = prog.addStream("cipher", B * 4,
                                       StreamLayout::PerLane);

    std::vector<std::unique_ptr<KernelGraph>> graphs;

    if (indexed) {
        // Replicated T-tables, one slot per table stream.
        SlotId te[4];
        for (int t = 0; t < 4; t++) {
            te[t] = prog.addStream("te" + std::to_string(t), 256,
                                   StreamLayout::PerLane, StreamDir::In,
                                   true);
            std::vector<Word> repData;
            for (uint32_t l = 0; l < lanes; l++)
                for (int x = 0; x < 256; x++)
                    repData.push_back(aesTe(t)[x]);
            prog.fillStream(te[t], repData);
        }
        // Timing/traffic of the one-time table broadcast load.
        SlotId tload = prog.addStream("tload", 5 * 256);
        prog.load(tload, tableAddr);

        graphs.push_back(std::make_unique<KernelGraph>(
            rijndaelRoundIdxGraph()));
        const KernelGraph *kg = graphs.back().get();

        for (uint32_t rep = 0; rep < opts.repeats; rep++) {
            prog.load(plainSlot, plainAddr);
            auto inv = newInvocation(m, kg,
                {plainSlot, te[0], te[1], te[2], te[3], cipherSlot});
            for (uint32_t l = 0; l < lanes; l++) {
                auto &tr = inv->laneTraces[l];
                tr.iterations = static_cast<uint64_t>(B) * 10;
                for (uint32_t b = 0; b < B; b++) {
                    for (uint32_t r = 0; r < 10; r++) {
                        const auto &idx = idxTrace[l][b * 10 + r];
                        for (int t = 0; t < 4; t++)
                            for (int i = 0; i < 4; i++)
                                tr.idxReads[1 + t].push_back(
                                    idx[4 * t + i]);
                    }
                    for (Word w : blockWords(cipher[l][b]))
                        tr.seqWrites[5].push_back(w);
                }
            }
            inv->finalize();
            prog.kernel(inv);
            prog.store(cipherSlot, cipherAddr);
        }
    } else {
        // Base/Cache: per-round memory round trips.
        graphs.push_back(std::make_unique<KernelGraph>(
            rijndaelRoundBaseGraph(true, false)));
        graphs.push_back(std::make_unique<KernelGraph>(
            rijndaelRoundBaseGraph(false, false)));
        graphs.push_back(std::make_unique<KernelGraph>(
            rijndaelRoundBaseGraph(false, true)));
        const KernelGraph *kFirst = graphs[0].get();
        const KernelGraph *kMid = graphs[1].get();
        const KernelGraph *kLast = graphs[2].get();

        SlotId stateA = prog.addStream("stateA", B * 4,
                                       StreamLayout::PerLane);
        SlotId stateB = prog.addStream("stateB", B * 4,
                                       StreamLayout::PerLane);
        SlotId tvalsA = prog.addStream("tvalsA", B * 16,
                                       StreamLayout::PerLane);
        SlotId tvalsB = prog.addStream("tvalsB", B * 16,
                                       StreamLayout::PerLane);

        auto gatherIdx = [&](uint32_t r) {
            std::vector<uint32_t> gi;
            gi.reserve(static_cast<size_t>(totalBlocks) * 16);
            for (uint32_t l = 0; l < lanes; l++) {
                for (uint32_t b = 0; b < B; b++) {
                    const auto &idx = idxTrace[l][b * 10 + (r - 1)];
                    for (int t = 0; t < 4; t++) {
                        uint32_t tblBase = (r == 10)
                            ? 4u * 256u  // final round: S-box table
                            : static_cast<uint32_t>(t) * 256u;
                        for (int i = 0; i < 4; i++)
                            gi.push_back(tblBase + idx[4 * t + i]);
                    }
                }
            }
            return gi;
        };

        for (uint32_t rep = 0; rep < opts.repeats; rep++) {
            prog.load(plainSlot, plainAddr);
            ProgOpId prevKernel;
            {
                auto inv = newInvocation(
                    m, kFirst, {plainSlot, stateA, tvalsB});
                for (uint32_t l = 0; l < lanes; l++) {
                    auto &tr = inv->laneTraces[l];
                    tr.iterations = B;
                    for (uint32_t b = 0; b < B; b++) {
                        for (int i = 0; i < 4; i++)
                            tr.seqWrites[1].push_back(0);
                        const auto &idx = idxTrace[l][b * 10];
                        for (int i = 0; i < 16; i++)
                            tr.seqWrites[2].push_back(idx[i]);
                    }
                }
                inv->finalize();
                prevKernel = prog.kernel(inv);
            }
            SlotId sCur = stateA, sNxt = stateB;
            SlotId tCur = tvalsA, tNxt = tvalsB;
            for (uint32_t r = 1; r <= 10; r++) {
                ProgOpId gid = prog.gather(tCur, tableAddr,
                                           gatherIdx(r), 1, cached);
                // The gather consumes indices computed by the previous
                // kernel: serialize the per-round memory round trip.
                prog.dependsOn(gid, prevKernel);

                bool last = r == 10;
                auto inv = newInvocation(m, last ? kLast : kMid,
                    last
                        ? std::vector<SlotId>{sCur, tCur, cipherSlot}
                        : std::vector<SlotId>{sCur, tCur, sNxt, tNxt});
                for (uint32_t l = 0; l < lanes; l++) {
                    auto &tr = inv->laneTraces[l];
                    tr.iterations = B;
                    for (uint32_t b = 0; b < B; b++) {
                        if (last) {
                            for (Word w : blockWords(cipher[l][b]))
                                tr.seqWrites[2].push_back(w);
                        } else {
                            const auto &st =
                                stateTrace[l][b * 10 + (r - 1)];
                            for (int i = 0; i < 4; i++)
                                tr.seqWrites[2].push_back(st[i]);
                            const auto &idx = idxTrace[l][b * 10 + r];
                            for (int i = 0; i < 16; i++)
                                tr.seqWrites[3].push_back(idx[i]);
                        }
                    }
                }
                inv->finalize();
                prevKernel = prog.kernel(inv);
                std::swap(sCur, sNxt);
                std::swap(tCur, tNxt);
            }
            prog.store(cipherSlot, cipherAddr);
        }
    }

    uint64_t cycles = prog.run();
    res.status = prog.lastStatus();
    harvestResult(res, m, cycles);
    if (res.status != RunStatus::Done) {
        // Interrupted run (watchdog/deadline/cancel): the functional
        // output is incomplete, so skip the reference validation.
        return res;
    }

    // --- validation: DRAM ciphertext vs reference CBC ---
    std::vector<Word> got =
        m.mem().dram().dump(cipherAddr, static_cast<uint64_t>(
            totalBlocks) * 4);
    bool ok = true;
    size_t w = 0;
    for (uint32_t l = 0; l < lanes && ok; l++) {
        std::array<uint8_t, 16> iv{};
        for (int i = 0; i < 16; i++)
            iv[i] = static_cast<uint8_t>(l * 16 + i);
        auto ref = aesCbcEncrypt128(key, iv, plain[l]);
        for (uint32_t b = 0; b < B && ok; b++) {
            auto expect = blockWords(ref[b]);
            for (int i = 0; i < 4; i++) {
                if (got[w] != expect[i])
                    ok = false;
                w++;
            }
        }
    }
    res.correct = ok;
    return res;
}

} // namespace isrf
