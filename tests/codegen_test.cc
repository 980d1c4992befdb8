/**
 * @file
 * Codegen guard for the register tiles: the GEMM microkernels must keep
 * their accumulators in registers, and the oblivious scan tiles their
 * output lanes. Two value-independence rules ride along: the GEMM
 * objects must not call libm's tanh or exp (the fused GELU is a
 * branch-free polynomial), and the argmax loops of the scan objects
 * must not branch except to repeat.
 *
 * The test disassembles the micro_*.cc objects of secemb_tensor and the
 * scan*.cc objects of secemb_oblivious with the toolchain's objdump and
 * walks every innermost loop (a backward branch with no other backward
 * branch inside it). A loop that issues a packed multiply-accumulate
 * (vfmadd*ps, vpdpbusd, vpmaddwd, or mulps together with addps), or in
 * the scan objects a packed blend (pand with pandn and por, pand with
 * pxor, vpternlog*, vpblendv*, or a masked move into a register), must
 * not both read and store the same memory operand: that is a tile
 * living in memory, loaded and stored around every step. Operands are
 * compared as addresses, not as text, by tracking constant pointer
 * bumps (add/sub/lea/inc/dec) through the loop body, so `(%rax)` read
 * before `sub $-0x80,%rax` matches `-0x80(%rax)` stored after it. A
 * loop may reload a read-only constant from memory.
 *
 * A call's target comes from its relocation (objdump -r), since an
 * unlinked object's call operands all point at the next instruction.
 *
 * Beside the tiles, the driver's merge (MergeTile, MergeFinal) and
 * A-panel pack (PackAPanels) in the AVX2 and AVX-512 objects, and the
 * dot interaction (InteractionForward) in secemb_dlrm's interaction.cc
 * object, must run at vector width: a loop that moves or computes
 * floats narrower than the object's width passes only beside a twin,
 * a loop of the same function at that width doing the same classes of
 * float arithmetic. That admits an edge tile's one-lane tail and fails
 * a loop that handles every element one float at a time.
 *
 * The first tests run the checker on fixed listings so its rules are
 * pinned independently of what the compiler emits today.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct Insn
{
    uint64_t addr = 0;
    std::string mnemonic;
    std::vector<std::string> operands;  // AT&T order: destination last
    std::string text;
    std::string symbol;  // relocation target, without its addend
};

struct Function
{
    std::string object;
    std::string name;
    std::vector<Insn> insns;
};

/** A loop or instruction that breaks a rule. */
struct Finding
{
    std::string object;
    std::string function;
    std::vector<std::string> lines;  // the loop body
};

bool
StartsWith(const std::string& s, const std::string& prefix)
{
    return s.compare(0, prefix.size(), prefix) == 0;
}

std::string
Trim(const std::string& s)
{
    const size_t b = s.find_first_not_of(" \t");
    if (b == std::string::npos) return "";
    const size_t e = s.find_last_not_of(" \t");
    return s.substr(b, e - b + 1);
}

/** Splits "a,(b,c,4),d" at top-level commas. */
std::vector<std::string>
SplitOperands(const std::string& s)
{
    std::vector<std::string> out;
    std::string cur;
    int depth = 0;
    for (const char ch : s) {
        if (ch == '(' || ch == '{') ++depth;
        if (ch == ')' || ch == '}') --depth;
        if (ch == ',' && depth == 0) {
            out.push_back(Trim(cur));
            cur.clear();
        } else {
            cur.push_back(ch);
        }
    }
    if (!Trim(cur).empty()) out.push_back(Trim(cur));
    return out;
}

/** Parses `objdump -d --no-show-raw-insn` output into functions. */
std::vector<Function>
ParseListing(const std::string& listing)
{
    static const std::set<std::string> kPrefixes = {
        "lock", "rep", "repz", "repnz", "repe", "repne", "notrack",
        "bnd", "data16", "addr32", "cs", "ds", "es", "ss", "fs", "gs"};
    std::vector<Function> fns;
    std::string object;
    std::istringstream in(listing);
    std::string line;
    while (std::getline(in, line)) {
        const size_t fmt = line.find(":     file format ");
        if (fmt != std::string::npos) {
            object = line.substr(0, fmt);
            continue;
        }
        // "0000000000000e40 <symbol>:" opens a function.
        const size_t lt = line.find(" <");
        if (lt != std::string::npos && line.back() == ':' &&
            std::isxdigit(static_cast<unsigned char>(line[0]))) {
            fns.push_back(
                {object, line.substr(lt + 2, line.size() - lt - 4), {}});
            continue;
        }
        // "\t\t\te41: R_X86_64_PLT32\ttanhf-0x4" names the symbol the
        // instruction before it refers to.
        const size_t reloc = line.find(": R_");
        if (reloc != std::string::npos) {
            const size_t tab = line.find('\t', reloc);
            if (fns.empty() || fns.back().insns.empty() ||
                tab == std::string::npos) {
                continue;
            }
            std::string symbol = Trim(line.substr(tab + 1));
            const size_t addend = symbol.find_last_of("+-");
            if (addend != std::string::npos &&
                symbol.compare(addend + 1, 2, "0x") == 0) {
                symbol = symbol.substr(0, addend);
            }
            fns.back().insns.back().symbol = symbol;
            continue;
        }
        // "     e40:\tvpmovzxwd (%rcx),%zmm1" is one instruction.
        const size_t colon = line.find(":\t");
        if (fns.empty() || colon == std::string::npos) continue;
        const std::string addr = Trim(line.substr(0, colon));
        if (addr.empty() ||
            addr.find_first_not_of("0123456789abcdef") != std::string::npos) {
            continue;
        }
        std::string body = line.substr(colon + 2);
        const size_t hash = body.find('#');
        if (hash != std::string::npos) body = body.substr(0, hash);
        const size_t sym = body.find(" <");
        if (sym != std::string::npos) body = body.substr(0, sym);
        Insn insn;
        insn.addr = std::stoull(addr, nullptr, 16);
        insn.text = Trim(line.substr(colon + 2));
        std::istringstream words(body);
        std::string word;
        while (words >> word && kPrefixes.count(word) != 0) {
        }
        insn.mnemonic = word;
        std::string rest;
        std::getline(words, rest);
        insn.operands = SplitOperands(Trim(rest));
        fns.back().insns.push_back(std::move(insn));
    }
    return fns;
}

bool
IsMemory(const std::string& op)
{
    return op.find('(') != std::string::npos;
}

/** 64-bit name of a general-purpose register ("%r8d" -> "r8",
 * "%eax" -> "rax"); empty for anything else. */
std::string
Gpr64(std::string op)
{
    if (op.empty() || op[0] != '%') return "";
    op = op.substr(1);
    static const std::map<std::string, std::string> kLegacy = {
        {"eax", "rax"}, {"ax", "rax"}, {"al", "rax"}, {"ebx", "rbx"},
        {"bx", "rbx"},  {"bl", "rbx"}, {"ecx", "rcx"}, {"cx", "rcx"},
        {"cl", "rcx"},  {"edx", "rdx"}, {"dx", "rdx"}, {"dl", "rdx"},
        {"esi", "rsi"}, {"si", "rsi"}, {"sil", "rsi"}, {"edi", "rdi"},
        {"di", "rdi"},  {"dil", "rdi"}, {"ebp", "rbp"}, {"bp", "rbp"},
        {"bpl", "rbp"}, {"esp", "rsp"}, {"sp", "rsp"}, {"spl", "rsp"}};
    const auto it = kLegacy.find(op);
    if (it != kLegacy.end()) return it->second;
    static const std::set<std::string> k64 = {"rax", "rbx", "rcx", "rdx",
                                              "rsi", "rdi", "rbp", "rsp"};
    if (k64.count(op) != 0) return op;
    // r8..r15 with an optional d/w/b suffix.
    const size_t digits = op.find_first_not_of("0123456789", 1);
    if (op[0] == 'r' && digits != 1) return op.substr(0, digits);
    return "";
}

int64_t
ParseSigned(const std::string& s)
{
    if (s.empty()) return 0;
    const bool neg = s[0] == '-';
    const std::string mag = neg ? s.substr(1) : s;
    const uint64_t v = std::stoull(mag, nullptr, 0);
    return neg ? -static_cast<int64_t>(v) : static_cast<int64_t>(v);
}

/** Symbolic register state over one pass of a loop body: each GPR has
 * a generation (bumped when it is overwritten) and a constant offset
 * accumulated from pointer bumps since then. */
struct RegState
{
    std::map<std::string, int> gen;
    std::map<std::string, int64_t> delta;

    /** "disp(base,index,scale)" as a canonical address; empty for
     * RIP-relative operands (read-only constants). */
    std::string
    Address(std::string op) const
    {
        const size_t brace = op.find('{');
        if (brace != std::string::npos) op = op.substr(0, brace);
        const size_t colon = op.find(':');  // segment override
        if (colon != std::string::npos) op = op.substr(colon + 1);
        const size_t lp = op.find('(');
        const size_t rp = op.find(')', lp);
        const std::vector<std::string> parts =
            SplitOperands(op.substr(lp + 1, rp - lp - 1));
        if (!parts.empty() && parts[0] == "%rip") return "";
        const std::string base = parts.size() > 0 ? Gpr64(parts[0]) : "";
        const std::string index = parts.size() > 1 ? Gpr64(parts[1]) : "";
        const int64_t scale = parts.size() > 2 ? ParseSigned(parts[2]) : 1;
        int64_t disp = ParseSigned(Trim(op.substr(0, lp)));
        disp += Delta(base) + scale * Delta(index);
        std::ostringstream key;
        key << base << '#' << Gen(base) << ',' << index << '#' << Gen(index)
            << ',' << scale << ',' << disp;
        return key.str();
    }

    int
    Gen(const std::string& r) const
    {
        const auto it = gen.find(r);
        return it == gen.end() ? 0 : it->second;
    }

    int64_t
    Delta(const std::string& r) const
    {
        const auto it = delta.find(r);
        return it == delta.end() ? 0 : it->second;
    }

    /** Applies the instruction's effect on general-purpose registers. */
    void
    Update(const Insn& insn)
    {
        if (insn.operands.empty()) return;
        const std::string dst = Gpr64(insn.operands.back());
        if (dst.empty()) return;
        const std::string& m = insn.mnemonic;
        if (StartsWith(m, "cmp") || StartsWith(m, "test") ||
            StartsWith(m, "push")) {
            return;
        }
        const std::string& src = insn.operands.front();
        const bool imm = insn.operands.size() == 2 && StartsWith(src, "$");
        const size_t lp = src.find('('), rp = src.find(')');
        if (imm && StartsWith(m, "add")) {
            delta[dst] += ParseSigned(src.substr(1));
        } else if (imm && StartsWith(m, "sub")) {
            delta[dst] -= ParseSigned(src.substr(1));
        } else if (insn.operands.size() == 1 && StartsWith(m, "inc")) {
            delta[dst] += 1;
        } else if (insn.operands.size() == 1 && StartsWith(m, "dec")) {
            delta[dst] -= 1;
        } else if (StartsWith(m, "lea") && insn.operands.size() == 2 &&
                   lp != std::string::npos &&
                   src.find(',') == std::string::npos &&
                   Gpr64(src.substr(lp + 1, rp - lp - 1)) == dst) {
            // lea disp(%reg),%reg: a pointer bump by disp.
            delta[dst] += ParseSigned(Trim(src.substr(0, lp)));
        } else {
            ++gen[dst];
            delta[dst] = 0;
        }
    }
};

bool
IsPureStore(const std::string& m)
{
    return StartsWith(m, "mov") || StartsWith(m, "vmov") ||
           StartsWith(m, "vextract") || StartsWith(m, "vpmov");
}

bool
WritesNothing(const std::string& m)
{
    return StartsWith(m, "cmp") || StartsWith(m, "test") ||
           StartsWith(m, "vptest") || StartsWith(m, "prefetch") ||
           StartsWith(m, "bt") || StartsWith(m, "ucomi") ||
           StartsWith(m, "comi") || StartsWith(m, "vucomi") ||
           StartsWith(m, "vcomi") || StartsWith(m, "push") ||
           StartsWith(m, "nop");
}

/** Whether a loop body blends packed lanes under a mask. GCC writes
 * the portable select as (s & m) | (d & ~m) or as d ^ ((s ^ d) & m). */
bool
HasPackedBlend(const std::vector<const Insn*>& body)
{
    bool pand = false, pandn = false, por = false, pxor = false;
    for (const Insn* insn : body) {
        const std::string& m = insn->mnemonic;
        if (StartsWith(m, "vpternlog") || StartsWith(m, "vpblendv") ||
            StartsWith(m, "vpblendm") || StartsWith(m, "vblendv") ||
            StartsWith(m, "blendv")) {
            return true;
        }
        // A masked move into a register, e.g. vmovdqa32 %zmm4,%zmm20{%k1}.
        if (StartsWith(m, "vmov") && !insn->operands.empty() &&
            insn->operands.back().find("{%k") != std::string::npos &&
            !IsMemory(insn->operands.back())) {
            return true;
        }
        pand |= m == "pand" || m == "vpand" || m == "andps" || m == "vandps";
        pandn |= m == "pandn" || m == "vpandn" || m == "andnps" ||
                 m == "vandnps";
        por |= m == "por" || m == "vpor" || m == "orps" || m == "vorps";
        pxor |= m == "pxor" || m == "vpxor" || m == "xorps" || m == "vxorps";
    }
    return pand && ((pandn && por) || pxor);
}

/** Whether a loop body issues a packed multiply-accumulate. */
bool
HasPackedMac(const std::vector<const Insn*>& body)
{
    bool mulps = false, addps = false;
    for (const Insn* insn : body) {
        const std::string& m = insn->mnemonic;
        if ((StartsWith(m, "vfmadd") && m.size() > 2 &&
             m.compare(m.size() - 2, 2, "ps") == 0) ||
            m == "vpdpbusd" || m == "vpmaddwd") {
            return true;
        }
        mulps |= m == "mulps" || m == "vmulps";
        addps |= m == "addps" || m == "vaddps";
    }
    return mulps && addps;
}

using LoopFilter = bool (*)(const std::vector<const Insn*>& body);

/** The innermost loops of `fn`, each as its body [branch target, the
 * backward branch]: a backward branch with no other inside it. */
std::vector<std::vector<const Insn*>>
InnermostLoops(const Function& fn)
{
    std::vector<std::pair<size_t, size_t>> loops;
    for (size_t i = 0; i < fn.insns.size(); ++i) {
        const Insn& insn = fn.insns[i];
        if (insn.mnemonic.empty() || insn.mnemonic[0] != 'j' ||
            insn.operands.size() != 1) {
            continue;
        }
        const std::string& op = insn.operands[0];
        if (op.empty() ||
            op.find_first_not_of("0123456789abcdef") != std::string::npos) {
            continue;  // indirect, or not an address
        }
        const uint64_t target = std::stoull(op, nullptr, 16);
        if (target > insn.addr) continue;
        for (size_t t = 0; t <= i; ++t) {
            if (fn.insns[t].addr == target) {
                loops.emplace_back(t, i);
                break;
            }
        }
    }
    std::vector<std::vector<const Insn*>> bodies;
    for (const auto& [b, e] : loops) {
        bool innermost = true;
        for (const auto& [b2, e2] : loops) {
            if ((b2 != b || e2 != e) && b <= b2 && e2 <= e) {
                innermost = false;
            }
        }
        if (!innermost) continue;
        std::vector<const Insn*> body;
        for (size_t i = b; i <= e; ++i) body.push_back(&fn.insns[i]);
        bodies.push_back(std::move(body));
    }
    return bodies;
}

/** Every innermost loop of `listing` that `checked` selects and that
 * reads and stores the same memory operand. `checked_loops` counts the
 * selected innermost loops, so a caller can tell "clean" from "checked
 * nothing". */
std::vector<Finding>
FindRoundTrips(const std::string& listing, LoopFilter checked,
               int* checked_loops)
{
    std::vector<Finding> findings;
    *checked_loops = 0;
    for (const Function& fn : ParseListing(listing)) {
        for (const std::vector<const Insn*>& body : InnermostLoops(fn)) {
            if (!checked(body)) continue;
            ++*checked_loops;

            RegState regs;
            std::set<std::string> reads, writes;
            for (const Insn* insn : body) {
                const auto& ops = insn->operands;
                for (size_t o = 0; o < ops.size(); ++o) {
                    if (!IsMemory(ops[o])) continue;
                    const std::string addr = regs.Address(ops[o]);
                    if (addr.empty() || StartsWith(insn->mnemonic, "lea") ||
                        StartsWith(insn->mnemonic, "prefetch")) {
                        continue;
                    }
                    const bool dst = o + 1 == ops.size() && ops.size() > 1;
                    if (!dst || !IsPureStore(insn->mnemonic)) {
                        reads.insert(addr);
                    }
                    if ((dst || ops.size() == 1) &&
                        !WritesNothing(insn->mnemonic)) {
                        writes.insert(addr);
                    }
                }
                regs.Update(*insn);
            }
            bool round_trip = false;
            for (const std::string& w : writes) {
                round_trip |= reads.count(w) != 0;
            }
            if (!round_trip) continue;
            Finding f{fn.object, fn.name, {}};
            for (const Insn* insn : body) f.lines.push_back(insn->text);
            findings.push_back(std::move(f));
        }
    }
    return findings;
}

/** Every call or jump in `listing` to one of `symbols`. `calls` counts
 * the calls and jumps with a relocation target, so a caller can tell
 * "none of these" from "no targets seen". */
std::vector<Finding>
FindCallsTo(const std::string& listing, const std::set<std::string>& symbols,
            int* calls)
{
    std::vector<Finding> findings;
    *calls = 0;
    for (const Function& fn : ParseListing(listing)) {
        for (const Insn& insn : fn.insns) {
            if (!StartsWith(insn.mnemonic, "call") &&
                !StartsWith(insn.mnemonic, "jmp")) {
                continue;
            }
            if (insn.symbol.empty()) continue;
            ++*calls;
            if (symbols.count(insn.symbol) != 0) {
                findings.push_back(
                    {fn.object, fn.name, {insn.text + " -> " + insn.symbol}});
            }
        }
    }
    return findings;
}

/** Every innermost loop of a function whose name contains `name` that
 * holds a conditional branch other than its back edge. `checked_loops`
 * counts the loops of those functions. */
std::vector<Finding>
FindBranchingLoops(const std::string& listing, const std::string& name,
                   int* checked_loops)
{
    std::vector<Finding> findings;
    *checked_loops = 0;
    for (const Function& fn : ParseListing(listing)) {
        if (fn.name.find(name) == std::string::npos) continue;
        for (const std::vector<const Insn*>& body : InnermostLoops(fn)) {
            ++*checked_loops;
            bool branches = false;
            for (size_t i = 0; i + 1 < body.size(); ++i) {
                const std::string& m = body[i]->mnemonic;
                branches |= !m.empty() && m[0] == 'j' && m != "jmp";
            }
            if (!branches) continue;
            Finding f{fn.object, fn.name, {}};
            for (const Insn* insn : body) f.lines.push_back(insn->text);
            findings.push_back(std::move(f));
        }
    }
    return findings;
}

/** The lanes a float instruction runs on: 1 for a scalar single ("ss")
 * operation, 16, 8 or 4 for a packed single ("ps") one (or a broadcast)
 * with a zmm, ymm or xmm operand; 0 for anything else, and for a plain
 * register-to-register move, which GCC also uses to copy scalars
 * between registers. */
int
FloatLanes(const Insn& insn)
{
    const std::string& m = insn.mnemonic;
    const auto ends = [&m](const char* suffix) {
        const size_t n = std::string(suffix).size();
        return m.size() > n && m.compare(m.size() - n, n, suffix) == 0;
    };
    const bool broadcast = StartsWith(m, "vbroadcastss");
    if (ends("ss") && !broadcast) return 1;
    if (!ends("ps") && !broadcast) return 0;
    bool memory = false;
    int lanes = 0;
    for (const std::string& op : insn.operands) {
        memory |= IsMemory(op);
        if (op.find("%zmm") != std::string::npos) lanes = std::max(lanes, 16);
        if (op.find("%ymm") != std::string::npos) lanes = std::max(lanes, 8);
        if (op.find("%xmm") != std::string::npos) lanes = std::max(lanes, 4);
    }
    const bool masked = !insn.operands.empty() &&
                        insn.operands.back().find("{%k") != std::string::npos;
    if (StartsWith(m, "vmov") || StartsWith(m, "mov")) {
        if (!memory && !masked) return 0;
    }
    return lanes;
}

/** The class of a float instruction's arithmetic: add (add, sub), mul,
 * div, fma, or select (compare, blend, min, max, a masked register
 * move); empty for moves, shuffles, bitwise logic and the rest. */
std::string
FloatClass(const Insn& insn)
{
    if (FloatLanes(insn) == 0) return "";
    std::string m = insn.mnemonic;
    if (m[0] == 'v') m = m.substr(1);
    if (StartsWith(m, "add") || StartsWith(m, "sub")) return "add";
    if (StartsWith(m, "mul")) return "mul";
    if (StartsWith(m, "div")) return "div";
    if (StartsWith(m, "fmadd") || StartsWith(m, "fmsub") ||
        StartsWith(m, "fnmadd") || StartsWith(m, "fnmsub")) {
        return "fma";
    }
    if (StartsWith(m, "cmp") || StartsWith(m, "blend") ||
        StartsWith(m, "max") || StartsWith(m, "min")) {
        return "select";
    }
    if (StartsWith(m, "mov") && !insn.operands.empty() &&
        insn.operands.back().find("{%k") != std::string::npos &&
        !IsMemory(insn.operands.back())) {
        return "select";
    }
    return "";
}

/**
 * Every innermost loop of the functions whose names contain `name` that
 * runs floats narrower than `lanes` and has no wide twin: a loop of the
 * same function that runs `lanes` or more at a time and does the same
 * classes of float arithmetic. A one-lane tail beside its vector loop
 * has a twin; a loop that handles every element one float at a time
 * does not. `checked_loops` counts the loops of those functions that
 * run floats at all.
 */
std::vector<Finding>
FindNarrowLoops(const std::string& listing, const std::string& name,
                int lanes, int* checked_loops)
{
    std::vector<Finding> findings;
    *checked_loops = 0;
    for (const Function& fn : ParseListing(listing)) {
        if (fn.name.find(name) == std::string::npos) continue;
        std::vector<std::pair<const std::vector<const Insn*>*,
                              std::set<std::string>>>
            narrow;
        std::set<std::set<std::string>> wide;
        const auto loops = InnermostLoops(fn);
        for (const std::vector<const Insn*>& body : loops) {
            int widest = 0;
            std::set<std::string> classes;
            for (const Insn* insn : body) {
                widest = std::max(widest, FloatLanes(*insn));
                const std::string c = FloatClass(*insn);
                if (!c.empty()) classes.insert(c);
            }
            if (widest == 0) continue;
            ++*checked_loops;
            if (widest >= lanes) {
                wide.insert(classes);
            } else {
                narrow.emplace_back(&body, classes);
            }
        }
        for (const auto& [body, classes] : narrow) {
            if (wide.count(classes) != 0) continue;
            Finding f{fn.object, fn.name, {}};
            for (const Insn* insn : *body) f.lines.push_back(insn->text);
            findings.push_back(std::move(f));
        }
    }
    return findings;
}

std::string
Describe(const std::vector<Finding>& findings)
{
    std::ostringstream out;
    for (const Finding& f : findings) {
        out << "\n" << f.object << ": " << f.function << "\n";
        for (const std::string& l : f.lines) out << "    " << l << "\n";
    }
    return out.str();
}

// Loop bodies as GCC 12 emitted them for the tiles before their row
// loops were unrolled.
constexpr const char* kStackAccumulatorF32 =
    "micro_avx512.cc.o:     file format elf64-x86-64\n"
    "0000000000000d00 <tile>:\n"
    "     e60:\tvbroadcastss (%rcx),%zmm0\n"
    "     e66:\tsub    $0xffffffffffffff80,%rdx\n"
    "     e6a:\tadd    $0x4,%rcx\n"
    "     e6e:\tvmovaps %zmm0,%zmm2\n"
    "     e74:\tvfmadd213ps -0x40(%rdx),%zmm1,%zmm0\n"
    "     e7b:\tvfmadd213ps -0x80(%rdx),%zmm3,%zmm2\n"
    "     e82:\tvmovaps %zmm0,-0x40(%rdx)\n"
    "     e89:\tvmovaps %zmm2,-0x80(%rdx)\n"
    "     e90:\tcmp    %rdx,%rbx\n"
    "     e93:\tjne    e60 <tile+0x160>\n";

constexpr const char* kStackAccumulatorVnni =
    "micro_int8_avx512.cc.o:     file format elf64-x86-64\n"
    "0000000000000a00 <tile>:\n"
    "     b70:\tvpbroadcastd (%rdx),%zmm1\n"
    "     b76:\tvmovdqa32 (%rax),%zmm0\n"
    "     b7c:\tsub    $0xffffffffffffff80,%rax\n"
    "     b80:\tadd    $0x4,%rdx\n"
    "     b84:\tvpdpbusd %zmm3,%zmm1,%zmm0\n"
    "     b8a:\tvmovdqa32 %zmm0,-0x80(%rax)\n"
    "     ba5:\tcmp    %rbx,%rax\n"
    "     ba8:\tjne    b70 <tile+0x170>\n";

constexpr const char* kRegisterTile =
    "micro_avx512.cc.o:     file format elf64-x86-64\n"
    "0000000000000d00 <tile>:\n"
    "     e40:\tprefetcht0 0x800(%rdx)\n"
    "     e47:\tvmovaps (%rdx),%zmm1\n"
    "     e4d:\tadd    $0x80,%rdx\n"
    "     e51:\tvbroadcastss (%rcx),%zmm2\n"
    "     e57:\tvfmadd231ps %zmm1,%zmm2,%zmm18\n"
    "     e5d:\tadd    $0x20,%rcx\n"
    "     e61:\tcmp    %rdx,%rbx\n"
    "     e64:\tjne    e40 <tile+0x140>\n"
    // A merge loop (no multiply-accumulate) may update memory freely.
    "     e70:\tvmovups (%rdi,%rax,1),%zmm0\n"
    "     e77:\tvaddps (%rsi,%rax,1),%zmm0,%zmm0\n"
    "     e7e:\tvmovups %zmm0,(%rdi,%rax,1)\n"
    "     e85:\tadd    $0x40,%rax\n"
    "     e89:\tcmp    %rax,%r8\n"
    "     e8c:\tjne    e70 <tile+0x170>\n";

TEST(CodegenCheckerTest, FlagsAccumulatorLoadedAndStoredAtOneAddress)
{
    int mac_loops = 0;
    EXPECT_EQ(FindRoundTrips(kStackAccumulatorF32, &HasPackedMac, &mac_loops)
                  .size(),
              1u);
    EXPECT_EQ(mac_loops, 1);
}

TEST(CodegenCheckerTest, FollowsPointerBumpsBetweenLoadAndStore)
{
    // (%rax) before `sub $-0x80,%rax` is -0x80(%rax) after it.
    int mac_loops = 0;
    EXPECT_EQ(FindRoundTrips(kStackAccumulatorVnni, &HasPackedMac, &mac_loops)
                  .size(),
              1u);
    EXPECT_EQ(mac_loops, 1);
}

TEST(CodegenCheckerTest, PassesRegisterTileAndMergeLoop)
{
    int mac_loops = 0;
    const std::vector<Finding> findings =
        FindRoundTrips(kRegisterTile, &HasPackedMac, &mac_loops);
    EXPECT_TRUE(findings.empty()) << Describe(findings);
    EXPECT_EQ(mac_loops, 1);
}

// The scan's blend loop as GCC 12 emitted it before the tiles: every
// table row loads, blends and stores the slot's output row.
constexpr const char* kBlendStoredEveryRow =
    "scan.cc.o:     file format elf64-x86-64\n"
    "0000000000000000 <scan>:\n"
    "     2e0:\tmovdqu (%rax,%rdi,4),%xmm1\n"
    "     2e5:\tmovdqu (%rcx,%rdi,4),%xmm0\n"
    "     2ea:\tlea    0x4(%rdi),%r14\n"
    "     2ee:\tpxor   %xmm1,%xmm0\n"
    "     2f2:\tpand   %xmm2,%xmm0\n"
    "     2f6:\tpxor   %xmm1,%xmm0\n"
    "     2fa:\tmovups %xmm0,(%rax,%rdi,4)\n"
    "     2fe:\tmovdqu (%rax,%r14,4),%xmm1\n"
    "     304:\tmovdqu (%rcx,%r14,4),%xmm0\n"
    "     30a:\tadd    $0x8,%rdi\n"
    "     30e:\tpxor   %xmm1,%xmm0\n"
    "     312:\tpand   %xmm2,%xmm0\n"
    "     316:\tpxor   %xmm1,%xmm0\n"
    "     31a:\tmovups %xmm0,(%rax,%r14,4)\n"
    "     31f:\tcmp    %r8,%rdi\n"
    "     322:\tjne    2e0 <scan+0x2e0>\n";

// Register tiles: AVX-512 masked moves, and AVX2 vpblendvb with one key
// reloaded from the stack, which is a read only.
constexpr const char* kRegisterBlendTiles =
    "scan_avx512.cc.o:     file format elf64-x86-64\n"
    "0000000000000af0 <tile>:\n"
    "     bd8:\tvpcmpeqd %zmm22,%zmm0,%k1\n"
    "     bdf:\tvmovdqu32 (%rax),%zmm4\n"
    "     be5:\tvmovdqu32 0x40(%rax),%zmm3\n"
    "     bec:\tadd    $0x1,%rcx\n"
    "     bfe:\tadd    %rdi,%rax\n"
    "     c01:\tvmovdqa32 %zmm4,%zmm20{%k1}\n"
    "     c07:\tvmovdqa32 %zmm3,%zmm19{%k1}\n"
    "     c5e:\tvpaddd %zmm21,%zmm0,%zmm0\n"
    "     c7c:\tcmp    %r9,%rcx\n"
    "     c7f:\tjne    bd8 <tile+0xe8>\n"
    "scan_avx2.cc.o:     file format elf64-x86-64\n"
    "0000000000000000 <tile>:\n"
    "     280:\tvpcmpeqd %ymm14,%ymm0,%ymm3\n"
    "     285:\tvmovdqu (%rdx),%ymm2\n"
    "     28e:\tadd    $0x1,%rsi\n"
    "     292:\tadd    %r8,%rdx\n"
    "     295:\tvpblendvb %ymm3,%ymm2,%ymm7,%ymm7\n"
    "     2c3:\tvpcmpeqd 0x88(%rsp),%ymm0,%ymm3\n"
    "     2cc:\tvpaddd %ymm15,%ymm0,%ymm0\n"
    "     2d1:\tvpblendvb %ymm3,%ymm2,%ymm9,%ymm9\n"
    "     2dd:\tcmp    %rax,%rsi\n"
    "     2e0:\tjne    280 <tile+0x280>\n";

TEST(CodegenCheckerTest, FlagsBlendLoadedAndStoredEveryRow)
{
    int blend_loops = 0;
    EXPECT_EQ(
        FindRoundTrips(kBlendStoredEveryRow, &HasPackedBlend, &blend_loops)
            .size(),
        1u);
    EXPECT_EQ(blend_loops, 1);
}

TEST(CodegenCheckerTest, PassesRegisterBlendTiles)
{
    int blend_loops = 0;
    const std::vector<Finding> findings =
        FindRoundTrips(kRegisterBlendTiles, &HasPackedBlend, &blend_loops);
    EXPECT_TRUE(findings.empty()) << Describe(findings);
    EXPECT_EQ(blend_loops, 2);
}

// The fused GELU as GCC 12 emitted it from std::tanh: a libm call per
// element of C, with the relocation objdump -r prints under it.
constexpr const char* kEpilogueCallsTanhf =
    "micro_avx512.cc.o:     file format elf64-x86-64\n"
    "0000000000000000 <merge>:\n"
    " 15a:\tvmulss 0x0(%rip),%xmm0,%xmm0        # 162 <merge+0x162>\n"
    "\t\t\t15e: R_X86_64_PC32\t.LC12-0x4\n"
    " 162:\tcall   167 <merge+0x167>\n"
    "\t\t\t163: R_X86_64_PLT32\ttanhf-0x4\n"
    " 167:\tmovzbl 0x36(%rsp),%esi\n"
    " 16c:\tjmp    171 <merge+0x171>\n"
    "\t\t\t16d: R_X86_64_PLT32\texpf-0x4\n";

// Calls to other symbols, and a local jump without a relocation.
constexpr const char* kEpilogueCallsOthers =
    "micro_scalar.cc.o:     file format elf64-x86-64\n"
    "0000000000000000 <run>:\n"
    "  29:\tcall   2e <run+0x2e>\n"
    "\t\t\t2a: R_X86_64_PLT32\toperator delete(void*, unsigned long)-0x4\n"
    "  78:\tcall   7d <run+0x7d>\n"
    "\t\t\t79: R_X86_64_PLT32\ttanhf_like-0x4\n"
    "  80:\tjmp    29 <run+0x29>\n";

TEST(CodegenCheckerTest, FlagsLibmCallsByRelocation)
{
    int calls = 0;
    const std::vector<Finding> findings = FindCallsTo(
        kEpilogueCallsTanhf, {"tanhf", "tanh", "expf"}, &calls);
    EXPECT_EQ(findings.size(), 2u) << Describe(findings);
    EXPECT_EQ(calls, 2);
}

TEST(CodegenCheckerTest, PassesCallsToOtherSymbols)
{
    int calls = 0;
    const std::vector<Finding> findings = FindCallsTo(
        kEpilogueCallsOthers, {"tanhf", "tanh", "expf"}, &calls);
    EXPECT_TRUE(findings.empty()) << Describe(findings);
    EXPECT_EQ(calls, 2);
}

// An argmax whose select compiled to a branch on the compared value,
// and a loop of another function that may branch.
constexpr const char* kArgmaxBranches =
    "scan.cc.o:     file format elf64-x86-64\n"
    "0000000000000000 <secemb::oblivious::detail::ArgmaxBaseline(float "
    "const*, long)>:\n"
    "      40:\tmov    (%rdi,%rax,4),%edx\n"
    "      43:\tcmp    %edx,%ecx\n"
    "      45:\tjae    4b <argmax+0x4b>\n"
    "      47:\tmov    %edx,%ecx\n"
    "      49:\tmov    %eax,%r8d\n"
    "      4b:\tadd    $0x1,%rax\n"
    "      4f:\tcmp    %rax,%rsi\n"
    "      52:\tjne    40 <argmax+0x40>\n"
    "0000000000000100 <secemb::oblivious::ScanRows()>:\n"
    "     140:\ttest   %eax,%eax\n"
    "     142:\tje     148 <topk+0x48>\n"
    "     144:\tadd    $0x1,%rax\n"
    "     148:\tcmp    %rax,%rsi\n"
    "     14b:\tjne    140 <topk+0x40>\n";

// The AVX-512 argmax: compare into a mask, two blends, then the tail's
// copy loop; only the back edges branch.
constexpr const char* kArgmaxBranchFree =
    "scan_avx512.cc.o:     file format elf64-x86-64\n"
    "0000000000002510 <secemb::oblivious::detail::ArgmaxAvx512(float "
    "const*, long)>:\n"
    "    2588:\tvmovdqa32 %zmm0,%zmm3\n"
    "    258e:\tvpsrad $0x1f,(%rdi,%rdx,4),%zmm5\n"
    "    2596:\tvmovdqu32 (%rdi,%rdx,4),%zmm0\n"
    "    259d:\tadd    $0x10,%rdx\n"
    "    25a1:\tvpternlogd $0x78,%zmm5,%zmm7,%zmm0\n"
    "    25a8:\tvpcmpled %zmm1,%zmm0,%k1\n"
    "    25af:\tvpblendmd %zmm1,%zmm0,%zmm1{%k1}\n"
    "    25b5:\tvpblendmd %zmm3,%zmm2,%zmm0{%k1}\n"
    "    25bb:\tvpaddd %zmm6,%zmm2,%zmm2\n"
    "    25c1:\tcmp    %rdx,%rax\n"
    "    25c4:\tjg     2588 <argmax+0x78>\n"
    "    25ce:\tcmp    %rax,%rcx\n"
    "    25d1:\tjle    2612 <argmax+0x102>\n"
    "    25e0:\tmov    (%rdi,%rax,4),%edx\n"
    "    25e3:\tmov    %edx,(%rsi,%rax,4)\n"
    "    25e6:\tadd    $0x1,%rax\n"
    "    25ea:\tcmp    %rax,%rcx\n"
    "    25ed:\tjne    25e0 <argmax+0xd0>\n";

TEST(CodegenCheckerTest, FlagsBranchInArgmaxLoop)
{
    int loops = 0;
    const std::vector<Finding> findings =
        FindBranchingLoops(kArgmaxBranches, "::detail::Argmax", &loops);
    EXPECT_EQ(findings.size(), 1u) << Describe(findings);
    EXPECT_EQ(loops, 1);
}

TEST(CodegenCheckerTest, PassesBranchFreeArgmaxLoops)
{
    int loops = 0;
    const std::vector<Finding> findings =
        FindBranchingLoops(kArgmaxBranchFree, "::detail::Argmax", &loops);
    EXPECT_TRUE(findings.empty()) << Describe(findings);
    EXPECT_EQ(loops, 2);
}

// MergeTile as GCC 12 emitted it before its loops ran at vector width:
// the accumulate loop one float at a time, beside the GELU's vector
// loop (other arithmetic, so no twin) and that loop's one-lane tail,
// whose clamps compiled to a max and a compare-and-blend.
constexpr const char* kScalarMerge =
    "micro_avx512.cc.o:     file format elf64-x86-64\n"
    "0000000000000000 <void secemb::kernels::detail::MergeTile<8, 32>()>:\n"
    "      c0:\tvmovss (%rdx,%rax,1),%xmm0\n"
    "      c5:\tvaddss (%rsi,%rax,1),%xmm0,%xmm0\n"
    "      ca:\tvmovss %xmm0,(%rdx,%rax,1)\n"
    "      cf:\tadd    $0x4,%rax\n"
    "      d3:\tcmp    %rax,%rcx\n"
    "      d6:\tjne    c0 <merge+0xc0>\n"
    "     258:\tvmovups (%r11,%r15,1),%zmm1\n"
    "     25f:\tvmulps %zmm1,%zmm1,%zmm0\n"
    "     265:\tvfmadd132ps %zmm21,%zmm20,%zmm0\n"
    "     271:\tvcmpltps %zmm0,%zmm6,%k1\n"
    "     278:\tvmovaps %zmm6,%zmm0{%k1}\n"
    "     297:\tvaddps %zmm17,%zmm22,%zmm23\n"
    "     2c0:\tvdivps %zmm0,%zmm1,%zmm1\n"
    "     2c6:\tvmovups %zmm1,(%rdx,%r15,1)\n"
    "     2cd:\tadd    $0x40,%r15\n"
    "     2d1:\tcmp    %r15,%r8\n"
    "     2d4:\tjne    258 <merge+0x258>\n"
    "     3b0:\tvmovss (%rsi,%rax,4),%xmm2\n"
    "     3b5:\tvmulss %xmm2,%xmm2,%xmm0\n"
    "     3b9:\tvfmadd132ss %xmm18,%xmm17,%xmm0\n"
    "     3bf:\tvcmpltss %xmm0,%xmm6,%xmm1\n"
    "     3c4:\tvblendvps %xmm1,%xmm6,%xmm0,%xmm0\n"
    "     3ca:\tvmaxss %xmm0,%xmm16,%xmm0\n"
    "     3d0:\tvmovaps %zmm0,%zmm19\n"
    "     3d6:\tvsubss %xmm5,%xmm19,%xmm1\n"
    "     441:\tvdivss %xmm0,%xmm1,%xmm0\n"
    "     445:\tvmovss %xmm0,(%rdx,%rax,4)\n"
    "     44a:\tadd    $0x1,%rax\n"
    "     44e:\tcmp    %eax,%edi\n"
    "     450:\tjg     3b0 <merge+0x3b0>\n";

// A final-block merge with bias and ReLU: the vector loop, then the
// edge tile's one-lane tail doing the same arithmetic.
constexpr const char* kVectorMergeWithTail =
    "micro_avx512.cc.o:     file format elf64-x86-64\n"
    "0000000000000000 <void secemb::kernels::detail::MergeFinal<8, 32, "
    "11>()>:\n"
    "      70:\tvmovups (%rsi,%rax,4),%zmm5\n"
    "      77:\tvaddps (%rdx,%rax,4),%zmm5,%zmm0\n"
    "      7e:\tvaddps (%rcx,%rax,4),%zmm0,%zmm0\n"
    "      85:\tvcmpnltps %zmm4,%zmm0,%k1\n"
    "      8c:\tvmovaps %zmm0,%zmm1{%k1}{z}\n"
    "      92:\tvmovups %zmm1,(%rdx,%rax,4)\n"
    "      99:\tadd    $0x10,%rax\n"
    "      9d:\tcmp    %eax,%r10d\n"
    "      a0:\tjg     70 <merge+0x70>\n"
    "      c0:\tvmovss (%r12,%rax,4),%xmm0\n"
    "      c6:\tvaddss (%rdx,%rax,4),%xmm0,%xmm0\n"
    "      cb:\tvaddss (%rcx,%rax,4),%xmm0,%xmm0\n"
    "      d0:\tvcmpltss %xmm3,%xmm0,%xmm1\n"
    "      d5:\tvblendvps %xmm1,%xmm2,%xmm0,%xmm0\n"
    "      db:\tvmovss %xmm0,-0x78(%rsp)\n"
    "      e1:\tmov    -0x78(%rsp),%esi\n"
    "      e5:\tmov    %esi,(%rdx,%rax,4)\n"
    "      e8:\tadd    $0x1,%rax\n"
    "      ec:\tcmp    %eax,%r11d\n"
    "      ef:\tjg     c0 <merge+0xc0>\n";

TEST(CodegenCheckerTest, FlagsMergeLoopOneFloatWide)
{
    int loops = 0;
    const std::vector<Finding> findings =
        FindNarrowLoops(kScalarMerge, "::MergeTile<", 16, &loops);
    ASSERT_EQ(findings.size(), 1u) << Describe(findings);
    EXPECT_EQ(findings[0].lines.size(), 6u);  // the accumulate loop
    EXPECT_EQ(loops, 3);
    // At 8 lanes the GELU's tail still has its twin.
    EXPECT_EQ(FindNarrowLoops(kScalarMerge, "::MergeTile<", 8, &loops).size(),
              1u);
}

TEST(CodegenCheckerTest, PassesVectorLoopWithOneLaneTail)
{
    int loops = 0;
    const std::vector<Finding> findings =
        FindNarrowLoops(kVectorMergeWithTail, "::MergeFinal<", 16, &loops);
    EXPECT_TRUE(findings.empty()) << Describe(findings);
    EXPECT_EQ(loops, 2);
    // Another function's name selects nothing.
    EXPECT_TRUE(
        FindNarrowLoops(kVectorMergeWithTail, "::MergeTile<", 16, &loops)
            .empty());
    EXPECT_EQ(loops, 0);
}

// PackAPanels before the in-register transposes: every row strided into
// the panel one float at a time. After them: the 8 x 8 transpose at
// ymm width, and the depth tail one float at a time.
constexpr const char* kStridedPack =
    "micro_avx2.cc.o:     file format elf64-x86-64\n"
    "0000000000000000 <void secemb::kernels::detail::PackAPanels<6>()>:\n"
    "     168:\tvmovss (%rax),%xmm0\n"
    "     16c:\tadd    $0x4,%rax\n"
    "     170:\tadd    $0x18,%rdi\n"
    "     174:\tvmovss %xmm0,-0x18(%rdi)\n"
    "     179:\tcmp    %r9,%rax\n"
    "     17c:\tjne    168 <pack+0x168>\n"
    "     2b8:\tmovl   $0x0,(%rcx)\n"
    "     2be:\tadd    $0x18,%rcx\n"
    "     2c2:\tcmp    %rcx,%rsi\n"
    "     2c5:\tjne    2b8 <pack+0x2b8>\n";

constexpr const char* kTransposedPack =
    "micro_avx2.cc.o:     file format elf64-x86-64\n"
    "0000000000000000 <void secemb::kernels::detail::PackAPanels<6>()>:\n"
    "     380:\tvmovups (%r9,%rcx,4),%ymm1\n"
    "     386:\tvunpcklps (%r12,%rcx,4),%ymm1,%ymm8\n"
    "     393:\tvunpckhps (%r12,%rcx,4),%ymm1,%ymm0\n"
    "     3c2:\tvshufps $0x44,%ymm7,%ymm8,%ymm10\n"
    "     3fa:\tvinsertf128 $0x1,%xmm11,%ymm10,%ymm5\n"
    "     400:\tvperm2f128 $0x31,%ymm11,%ymm10,%ymm11\n"
    "     406:\tvmaskmovps %ymm5,%ymm12,-0x90(%r8)\n"
    "     466:\tcmp    %rcx,%rsi\n"
    "     469:\tjg     380 <pack+0x380>\n"
    "     4a8:\tvmovss (%rax),%xmm0\n"
    "     4ac:\tadd    $0x4,%rax\n"
    "     4b0:\tadd    $0x18,%rdi\n"
    "     4b4:\tvmovss %xmm0,-0x18(%rdi)\n"
    "     4b9:\tcmp    %r9,%rax\n"
    "     4bc:\tjne    4a8 <pack+0x4a8>\n";

TEST(CodegenCheckerTest, FlagsPackOneFloatWidePassesTransposes)
{
    int loops = 0;
    std::vector<Finding> findings =
        FindNarrowLoops(kStridedPack, "::PackAPanels<", 8, &loops);
    EXPECT_EQ(findings.size(), 1u) << Describe(findings);
    EXPECT_EQ(loops, 1);  // the zero fill moves no float
    findings = FindNarrowLoops(kTransposedPack, "::PackAPanels<", 8, &loops);
    EXPECT_TRUE(findings.empty()) << Describe(findings);
    EXPECT_EQ(loops, 2);
}

// The dot interaction one float per step, then at the baseline width
// with its one-float scatter beside a 4-lane transpose.
constexpr const char* kScalarDot =
    "interaction.cc.o:     file format elf64-x86-64\n"
    "0000000000000000 <secemb::dlrm::InteractionForward()>:\n"
    "     600:\tmovss  (%rsi,%rax,4),%xmm0\n"
    "     605:\tmulss  (%r8,%rax,4),%xmm0\n"
    "     60b:\tadd    $0x1,%rax\n"
    "     60f:\taddss  %xmm0,%xmm1\n"
    "     613:\tcmp    %rax,%rbp\n"
    "     616:\tjne    600 <fwd+0x600>\n";

constexpr const char* kPackedDot =
    "interaction.cc.o:     file format elf64-x86-64\n"
    "0000000000000000 <secemb::dlrm::InteractionForward()>:\n"
    "     408:\tmovups (%rax),%xmm0\n"
    "     40b:\tmovups (%rax,%rdi,4),%xmm5\n"
    "     413:\tmovaps %xmm0,%xmm2\n"
    "     416:\tunpckhps %xmm5,%xmm0\n"
    "     419:\tunpcklps %xmm5,%xmm2\n"
    "     41c:\tmovups %xmm2,(%rdx)\n"
    "     420:\tcmp    %rcx,%rax\n"
    "     423:\tjne    408 <fwd+0x408>\n"
    "     750:\tmovups (%rdx,%rdi,1),%xmm0\n"
    "     754:\tmovups (%rax,%rdi,1),%xmm4\n"
    "     758:\tadd    $0x1,%r8\n"
    "     75c:\tadd    %r11,%rdi\n"
    "     75f:\tmulps  %xmm4,%xmm0\n"
    "     762:\taddps  %xmm0,%xmm1\n"
    "     765:\tcmp    %r8,%rbx\n"
    "     768:\tjne    750 <fwd+0x750>\n"
    "     790:\tmovss  (%rdi),%xmm0\n"
    "     794:\tadd    $0x4,%rdi\n"
    "     798:\tmovss  %xmm0,(%r8)\n"
    "     79d:\tadd    %r14,%r8\n"
    "     7a0:\tcmp    %r13,%rdi\n"
    "     7a3:\tjne    790 <fwd+0x790>\n";

TEST(CodegenCheckerTest, FlagsScalarDotPassesPackedDot)
{
    int loops = 0;
    EXPECT_EQ(
        FindNarrowLoops(kScalarDot, "::InteractionForward(", 4, &loops).size(),
        1u);
    EXPECT_EQ(loops, 1);
    const std::vector<Finding> findings =
        FindNarrowLoops(kPackedDot, "::InteractionForward(", 4, &loops);
    EXPECT_TRUE(findings.empty()) << Describe(findings);
    EXPECT_EQ(loops, 3);
}

/** `cmd`'s standard output; `ok` is false unless it exited 0. */
std::string
RunCommand(const std::string& cmd, bool* ok)
{
    std::string out;
    FILE* pipe = popen(cmd.c_str(), "r");
    *ok = pipe != nullptr;
    if (pipe == nullptr) return out;
    char buf[4096];
    size_t n;
    while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) out.append(buf, n);
    *ok = pclose(pipe) == 0;
    return out;
}

/** The listing of every object in `archive` whose name starts with
 * `prefix`, keyed by object name, with relocations. */
std::map<std::string, std::string>
ObjectListings(const std::string& archive, const std::string& prefix)
{
    bool ok = false;
    const std::string listing = RunCommand(
        std::string("'") + SECEMB_OBJDUMP + "' -dr -C --no-show-raw-insn '" +
            archive + "'",
        &ok);
    EXPECT_TRUE(ok) << "objdump failed on " << archive;
    std::map<std::string, std::string> objects;
    std::string* current = nullptr;
    std::istringstream in(listing);
    std::string line;
    while (std::getline(in, line)) {
        const size_t fmt = line.find(":     file format ");
        if (fmt != std::string::npos) {
            const std::string object = line.substr(0, fmt);
            current = StartsWith(object, prefix) ? &objects[object] : nullptr;
        }
        if (current != nullptr) *current += line + "\n";
    }
    return objects;
}

/** Fails every object with a checked loop that round-trips memory, or
 * with no checked loop at all: finding none means the checker saw
 * nothing, not that the code is clean. */
void
ExpectRegisterTiles(const std::map<std::string, std::string>& objects,
                    LoopFilter checked, const char* what)
{
    for (const auto& [object, text] : objects) {
        int loops = 0;
        const std::vector<Finding> findings =
            FindRoundTrips(text, checked, &loops);
        EXPECT_TRUE(findings.empty())
            << object << ": " << findings.size() << " " << what
            << " loop(s) keep their tile in memory:" << Describe(findings);
        EXPECT_GT(loops, 0) << object << ": no " << what << " loop";
    }
}

TEST(CodegenTest, MicrokernelAccumulatorsStayInRegisters)
{
    // Only the microkernel objects are checked: the naive reference GEMM
    // in gemm.cc accumulates into C in memory by design.
    const auto objects = ObjectListings(SECEMB_TENSOR_ARCHIVE, "micro_");
    // The scalar tier is built everywhere.
    EXPECT_EQ(objects.count("micro_scalar.cc.o"), 1u);
    ExpectRegisterTiles(objects, &HasPackedMac, "multiply-accumulate");
}

TEST(CodegenTest, ScanTilesStayInRegisters)
{
    // scan.cc holds the baseline tile; scan_avx2.cc and scan_avx512.cc
    // the SIMD tiers the compiler could build.
    const auto objects = ObjectListings(SECEMB_OBLIVIOUS_ARCHIVE, "scan");
    EXPECT_EQ(objects.count("scan.cc.o"), 1u);
    ExpectRegisterTiles(objects, &HasPackedBlend, "blend");
}

TEST(CodegenTest, GemmObjectsCallNoLibmTanhOrExp)
{
    // glibc's tanhf branches on |x|; the fused GELU must not call it,
    // nor tanh or expf.
    const auto objects = ObjectListings(SECEMB_TENSOR_ARCHIVE, "micro_");
    EXPECT_EQ(objects.count("micro_scalar.cc.o"), 1u);
    for (const auto& [object, text] : objects) {
        int calls = 0;
        const std::vector<Finding> findings =
            FindCallsTo(text, {"tanhf", "tanh", "expf"}, &calls);
        EXPECT_TRUE(findings.empty())
            << object << " calls libm:" << Describe(findings);
        EXPECT_GT(calls, 0) << object << ": no call targets seen";
    }
}

TEST(CodegenTest, ArgmaxLoopsBranchOnlyToRepeat)
{
    // Each tier's argmax: the vector loop and the tail's copy loop.
    const auto objects = ObjectListings(SECEMB_OBLIVIOUS_ARCHIVE, "scan");
    EXPECT_EQ(objects.count("scan.cc.o"), 1u);
    for (const auto& [object, text] : objects) {
        int loops = 0;
        const std::vector<Finding> findings =
            FindBranchingLoops(text, "::detail::Argmax", &loops);
        EXPECT_TRUE(findings.empty())
            << object << ": " << findings.size()
            << " argmax loop(s) branch:" << Describe(findings);
        EXPECT_GT(loops, 0) << object << ": no argmax loop";
    }
}

TEST(CodegenTest, MergeAndPackLoopsRunAtObjectWidth)
{
    // The merge runs whole EpilogueLanes vectors (8 or 16 floats); the
    // A-panel pack transposes 8 depths of 8 rows at ymm width on both
    // tiers. One-lane tails of edge tiles and depths pass beside them.
    const auto objects = ObjectListings(SECEMB_TENSOR_ARCHIVE, "micro_");
    const std::map<std::string, int> kMergeLanes = {
        {"micro_avx2.cc.o", 8}, {"micro_avx512.cc.o", 16}};
    for (const auto& [object, lanes] : kMergeLanes) {
        const auto it = objects.find(object);
        if (it == objects.end()) continue;  // tier not compiled in
        const std::vector<std::pair<const char*, int>> rules = {
            {"::MergeTile<", lanes},
            {"::MergeFinal<", lanes},
            {"::PackAPanels<", 8}};
        for (const auto& [name, want] : rules) {
            int loops = 0;
            const std::vector<Finding> findings =
                FindNarrowLoops(it->second, name, want, &loops);
            EXPECT_TRUE(findings.empty())
                << object << ": " << findings.size() << " " << name
                << " loop(s) narrower than " << want
                << " lanes without a twin:" << Describe(findings);
            EXPECT_GT(loops, 0) << object << ": no " << name << " loop";
        }
    }
}

TEST(CodegenTest, DotInteractionRunsPacked)
{
    // The dot interaction's loops run at the baseline width (4 floats);
    // InteractionBackward may stay one float wide.
    const auto objects = ObjectListings(SECEMB_DLRM_ARCHIVE, "interaction");
    ASSERT_EQ(objects.count("interaction.cc.o"), 1u);
    int loops = 0;
    const std::vector<Finding> findings = FindNarrowLoops(
        objects.at("interaction.cc.o"), "::InteractionForward(", 4, &loops);
    EXPECT_TRUE(findings.empty())
        << findings.size() << " InteractionForward loop(s) one float wide:"
        << Describe(findings);
    EXPECT_GT(loops, 0) << "no InteractionForward loop";
}

}  // namespace
