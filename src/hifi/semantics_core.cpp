/**
 * @file
 * Semantics-builder core: state access, fault plumbing, segmentation,
 * paging, flags, stack, and segment loading. The per-Op generators
 * live in semantics_ops.cpp.
 */
#include "hifi/ctx.h"

#include "arch/paging.h"

namespace pokeemu::hifi {

using arch::kNumGprs;

namespace {

ExprRef
imm32(u64 v)
{
    return E::constant(32, v);
}

ExprRef
bit_of(const ExprRef &value, unsigned pos)
{
    return E::extract(value, pos, 1);
}

} // namespace

Ctx::Ctx(const DecodedInsn &insn, const SemanticsOptions &options)
    : b_(std::string("sem_") +
         (insn.desc ? insn.desc->mnemonic : "bad")),
      insn_(insn), opt_(options)
{
}

// ---------------------------------------------------------------------
// Raw state access.
// ---------------------------------------------------------------------

ExprRef
Ctx::ld8(u32 addr)
{
    return b_.load(imm32(addr), 1);
}

ExprRef
Ctx::ld16(u32 addr)
{
    return b_.load(imm32(addr), 2);
}

ExprRef
Ctx::ld32(u32 addr)
{
    return b_.load(imm32(addr), 4);
}

void
Ctx::st8(u32 addr, const ExprRef &v)
{
    b_.store(imm32(addr), 1, v);
}

void
Ctx::st16(u32 addr, const ExprRef &v)
{
    b_.store(imm32(addr), 2, v);
}

void
Ctx::st32(u32 addr, const ExprRef &v)
{
    b_.store(imm32(addr), 4, v);
}

// ---------------------------------------------------------------------
// Registers and flags.
// ---------------------------------------------------------------------

ExprRef
Ctx::gpr(unsigned r)
{
    assert(r < kNumGprs);
    return ld32(layout::gpr_addr(r));
}

void
Ctx::set_gpr(unsigned r, const ExprRef &v)
{
    assert(r < kNumGprs);
    st32(layout::gpr_addr(r), v);
}

ExprRef
Ctx::gpr16(unsigned r)
{
    return ld16(layout::gpr_addr(r));
}

void
Ctx::set_gpr16(unsigned r, const ExprRef &v)
{
    st16(layout::gpr_addr(r), v);
}

ExprRef
Ctx::gpr8(unsigned r)
{
    assert(r < 8);
    // AL CL DL BL are the low bytes of regs 0..3; AH CH DH BH the
    // second bytes of regs 0..3.
    const u32 addr = r < 4 ? layout::gpr_addr(r)
                           : layout::gpr_addr(r - 4) + 1;
    return ld8(addr);
}

void
Ctx::set_gpr8(unsigned r, const ExprRef &v)
{
    assert(r < 8);
    const u32 addr = r < 4 ? layout::gpr_addr(r)
                           : layout::gpr_addr(r - 4) + 1;
    st8(addr, v);
}

ExprRef
Ctx::reg_operand(unsigned r, unsigned width)
{
    switch (width) {
      case 8: return gpr8(r);
      case 16: return gpr16(r);
      case 32: return gpr(r);
    }
    panic("bad register width");
}

void
Ctx::set_reg_operand(unsigned r, unsigned width, const ExprRef &v)
{
    switch (width) {
      case 8: set_gpr8(r, v); return;
      case 16: set_gpr16(r, v); return;
      case 32: set_gpr(r, v); return;
    }
    panic("bad register width");
}

ExprRef
Ctx::eflags()
{
    return ld32(layout::kEflagsAddr);
}

void
Ctx::set_eflags(const ExprRef &v)
{
    // Bit 1 is architecturally fixed to one; bits 3/5/15 to zero.
    ExprRef cleaned = E::bor(
        E::band(v, imm32(~(0x8028u))), imm32(arch::kFlagFixed1));
    st32(layout::kEflagsAddr, cleaned);
}

ExprRef
Ctx::flag(unsigned pos)
{
    return bit_of(eflags(), pos);
}

// ---------------------------------------------------------------------
// Segment cache fields.
// ---------------------------------------------------------------------

ExprRef
Ctx::seg_sel(unsigned s)
{
    return ld16(layout::seg_addr(s, layout::kSegSelector));
}

ExprRef
Ctx::seg_base(unsigned s)
{
    return ld32(layout::seg_addr(s, layout::kSegBase));
}

ExprRef
Ctx::seg_limit(unsigned s)
{
    return ld32(layout::seg_addr(s, layout::kSegLimit));
}

ExprRef
Ctx::seg_access(unsigned s)
{
    return ld8(layout::seg_addr(s, layout::kSegAccess));
}

ExprRef
Ctx::seg_db(unsigned s)
{
    return ld8(layout::seg_addr(s, layout::kSegDb));
}

// ---------------------------------------------------------------------
// Faults.
// ---------------------------------------------------------------------

void
Ctx::fault_if(const ExprRef &cond, u8 vector, const ExprRef &error_code,
              bool has_error, const ExprRef &cr2, bool expect_decided)
{
    Label fault = b_.label();
    std::string note = std::string("fault #") + std::to_string(vector);
    // The generic templates knowingly degenerate for particular
    // encodings (a wrap check on a constant offset folds constant; a
    // re-checked segment is implied by its first check). The markers
    // acknowledge the ir_lint findings such a check produces.
    const bool decided = expect_decided || cond->is_const();
    if (decided)
        note += "; lint: allow-const-branch";
    pending_faults_.push_back({fault, vector, error_code, has_error,
                               cr2, decided});
    b_.if_goto(cond, fault, note);
    if (decided && !(cond->is_const() && cond->value() == 0)) {
        b_.comment("continuation of a statically-decided fault "
                   "check; lint: allow-dataflow-unreachable");
    }
}

void
Ctx::fault_now(u8 vector, const ExprRef &error_code, bool has_error,
               const ExprRef &cr2)
{
    Label fault = b_.label();
    pending_faults_.push_back({fault, vector, error_code, has_error,
                               cr2});
    b_.jmp(fault);
}

void
Ctx::flush_faults()
{
    for (const PendingFault &f : pending_faults_) {
        b_.bind(f.label);
        if (f.statically_dead) {
            b_.comment("fault dispatch for a statically-decided "
                       "check; lint: allow-dataflow-unreachable");
        }
        st8(layout::kExcVectorAddr, E::constant(8, f.vector));
        st8(layout::kExcHasErrorAddr,
            E::constant(8, f.has_error ? 1 : 0));
        st32(layout::kExcErrorAddr,
             f.error_code ? f.error_code : imm32(0));
        if (f.cr2)
            st32(layout::kCr2Addr, f.cr2);
        st8(layout::kHaltedAddr, E::constant(8, 1));
        b_.halt(halt_exception_code(f.vector));
    }
    pending_faults_.clear();
}

// ---------------------------------------------------------------------
// Segmentation.
// ---------------------------------------------------------------------

ExprRef
Ctx::seg_check(unsigned s, const ExprRef &offset, unsigned size,
               bool write)
{
    const u8 vector = s == arch::kSs ? arch::kExcSs : arch::kExcGp;
    // Checks live with their access, as in interpreter
    // implementations, so a program touching the same segment twice
    // re-checks it; the dataflow facts decide the repeats on every
    // path where the first check passed, and the lint markers
    // acknowledge that.
    const bool recheck = !seg_checked_.insert(s).second;
    ExprRef sel = b_.assign(seg_sel(s), "selector");
    // Null segment is unusable.
    fault_if(E::eq(E::band(sel, E::constant(16, 0xfffc)),
                   E::constant(16, 0)),
             vector, imm32(0), true, nullptr, recheck);

    ExprRef acc = b_.assign(seg_access(s), "access byte");
    // Cached descriptor must be present.
    fault_if(E::eq(bit_of(acc, 7), E::bool_const(false)), vector,
             imm32(0), true, nullptr, recheck);

    const ExprRef is_code = bit_of(acc, 3);
    const ExprRef rw = bit_of(acc, 1);
    if (write) {
        // Writes require a writable data segment.
        fault_if(E::lor(E::eq(is_code, E::bool_const(true)),
                        E::eq(rw, E::bool_const(false))),
                 vector, imm32(0), true, nullptr, recheck);
    } else {
        // Reads fault only on execute-only code segments.
        fault_if(E::land(is_code, E::lnot(rw)), vector, imm32(0), true,
                 nullptr, recheck);
    }

    ExprRef limit = b_.assign(seg_limit(s), "limit");
    const ExprRef expand_down =
        E::land(E::lnot(is_code), bit_of(acc, 2));
    const ExprRef last_expr = E::add(offset, imm32(size - 1));
    ExprRef last = b_.assign(last_expr, "last byte offset");
    // Wrap of offset+size-1 past 2^32 is always out of range. A
    // single-byte access cannot wrap (last aliases offset itself).
    fault_if(E::ult(last, offset), vector, imm32(0), true, nullptr,
             size == 1);
    // The expand-down/expand-up cases are separate code paths, as in
    // interpreter implementations (each check is its own branch).
    Label down = b_.label(), up = b_.label(), limit_ok = b_.label();
    b_.cjmp(expand_down, down, up,
            recheck ? "expand-down segment; lint: allow-const-branch"
                    : "expand-down segment");
    b_.bind(up);
    // Expand-up: last must be <= limit. No limit is below a constant
    // zero last, so the check is decided for such encodings.
    fault_if(E::ult(limit, last), vector, imm32(0), true, nullptr,
             last_expr->is_const() && last_expr->value() == 0);
    b_.jmp(limit_ok);
    b_.bind(down);
    if (recheck) {
        b_.comment("expand-down arm of a re-checked segment; "
                   "lint: allow-dataflow-unreachable");
    }
    // Expand-down: valid range is (limit, upper]; upper from D/B.
    // A zero offset can never exceed the limit, so the check is
    // decided for zero-offset encodings.
    fault_if(E::ule(offset, limit), vector, imm32(0), true, nullptr,
             offset->is_const() && offset->value() == 0);
    const ExprRef upper = E::ite(
        E::eq(seg_db(s), E::constant(8, 0)),
        imm32(0xffff), imm32(0xffffffff));
    // Both possible uppers are at least 0xffff, so a small constant
    // last can never exceed either one.
    fault_if(E::ult(upper, last), vector, imm32(0), true, nullptr,
             last_expr->is_const() && last_expr->value() <= 0xffff);
    b_.jmp(limit_ok);
    b_.bind(limit_ok);

    return b_.assign(E::add(seg_base(s), offset), "linear address");
}

// ---------------------------------------------------------------------
// Paging.
// ---------------------------------------------------------------------

ExprRef
Ctx::translate(const ExprRef &linear, bool write)
{
    ExprRef lin = b_.assign(linear, "linear");
    ExprRef cr0 = b_.assign(ld32(layout::kCr0Addr), "cr0");

    // Paging disabled: identity map. Emit as an IR-level branch so
    // CR0.PG being symbolic explores both configurations.
    Label paged = b_.label(), flat = b_.label(), join_store = b_.label();
    // Result is communicated through a scratch slot in the state image
    // region (IR temps are SSA, so joins go through memory).
    const u32 scratch = layout::kInsnBufBase + 0x20;
    b_.cjmp(bit_of(cr0, 31), paged, flat, "CR0.PG");

    b_.bind(flat);
    st32(scratch, lin);
    b_.jmp(join_store);

    b_.bind(paged);
    {
        ExprRef cr3 = b_.assign(ld32(layout::kCr3Addr), "cr3");
        const ExprRef err_base = imm32(write ? arch::kPfErrWrite : 0);

        ExprRef pde_off = E::band(
            E::lshr(lin, imm32(22)), imm32(0x3ff));
        ExprRef pde_addr = b_.assign(
            E::add(imm32(layout::kGuestPhysBase),
                   E::band(E::add(E::band(cr3, imm32(0xfffff000)),
                                  E::shl(pde_off, imm32(2))),
                           imm32(arch::kPhysMemSize - 1))),
            "pde address");
        ExprRef pde = b_.assign(b_.load(pde_addr, 4), "pde");
        fault_if(E::eq(bit_of(pde, 0), E::bool_const(false)),
                 arch::kExcPf, err_base, true, lin);

        ExprRef pte_off = E::band(
            E::lshr(lin, imm32(12)), imm32(0x3ff));
        ExprRef pte_addr = b_.assign(
            E::add(imm32(layout::kGuestPhysBase),
                   E::band(E::add(E::band(pde, imm32(0xfffff000)),
                                  E::shl(pte_off, imm32(2))),
                           imm32(arch::kPhysMemSize - 1))),
            "pte address");
        ExprRef pte = b_.assign(b_.load(pte_addr, 4), "pte");
        fault_if(E::eq(bit_of(pte, 0), E::bool_const(false)),
                 arch::kExcPf, err_base, true, lin);

        if (write) {
            // Supervisor (CPL0) writes honor read-only PTEs only when
            // CR0.WP is set.
            const ExprRef rw_ok =
                E::land(bit_of(pde, 1), bit_of(pte, 1));
            const ExprRef wp = bit_of(cr0, 16);
            fault_if(E::land(wp, E::lnot(rw_ok)), arch::kExcPf,
                     E::bor(err_base, imm32(arch::kPfErrPresent)), true,
                     lin);
        }

        // Accessed / dirty updates (hardware sets them on the walk).
        b_.store(pde_addr, 4, E::bor(pde, imm32(arch::kPteAccessed)));
        ExprRef new_pte = E::bor(pte, imm32(arch::kPteAccessed));
        if (write)
            new_pte = E::bor(new_pte, imm32(arch::kPteDirty));
        b_.store(pte_addr, 4, new_pte);

        ExprRef phys = E::bor(E::band(pte, imm32(0xfffff000)),
                              E::band(lin, imm32(0xfff)));
        st32(scratch, phys);
    }
    b_.jmp(join_store);

    b_.bind(join_store);
    ExprRef phys = b_.assign(ld32(scratch), "physical");
    return b_.assign(
        E::add(imm32(layout::kGuestPhysBase),
               E::band(phys, imm32(arch::kPhysMemSize - 1))),
        "host address");
}

ExprRef
Ctx::mem_read(unsigned s, const ExprRef &offset, unsigned size)
{
    ExprRef lin = seg_check(s, offset, size, false);
    ExprRef host = translate(lin, false);
    return b_.load(host, size);
}

PreparedWrite
Ctx::prepare_write(unsigned s, const ExprRef &offset, unsigned size)
{
    ExprRef lin = seg_check(s, offset, size, true);
    ExprRef host = translate(lin, true);
    return {host, size};
}

void
Ctx::commit_write(const PreparedWrite &w, const ExprRef &value)
{
    b_.store(w.host_addr, w.size, value);
}

void
Ctx::mem_write(unsigned s, const ExprRef &offset, unsigned size,
               const ExprRef &value)
{
    commit_write(prepare_write(s, offset, size), value);
}

// ---------------------------------------------------------------------
// ModRM operands.
// ---------------------------------------------------------------------

unsigned
Ctx::effective_segment() const
{
    if (insn_.seg_override >= 0)
        return static_cast<unsigned>(insn_.seg_override);
    // Default segment: SS when the base register is EBP or ESP.
    if (insn_.has_sib) {
        if (insn_.base == arch::kEbp && insn_.mod == 0)
            return arch::kDs; // disp32 base, DS default.
        if (insn_.base == arch::kEsp || insn_.base == arch::kEbp)
            return arch::kSs;
        return arch::kDs;
    }
    if (insn_.mod != 0 && insn_.rm == arch::kEbp)
        return arch::kSs;
    return arch::kDs;
}

ExprRef
Ctx::imm_v(unsigned width)
{
    if (!generic())
        return E::constant(width, insn_.imm);
    return width == 32 ? imm_param_
                       : E::extract(imm_param_, 0, width);
}

ExprRef
Ctx::imm_sext8_v(unsigned width)
{
    if (!generic()) {
        return E::constant(
            width, static_cast<u64>(sign_extend(insn_.imm & 0xff, 8)));
    }
    return E::sext(E::extract(imm_param_, 0, 8), width);
}

ExprRef
Ctx::shift_count_v()
{
    if (!generic())
        return E::constant(8, insn_.imm & 0x1f);
    return E::band(E::extract(imm_param_, 0, 8), E::constant(8, 0x1f));
}

ExprRef
Ctx::imm_low8_32_v()
{
    if (!generic())
        return imm32(insn_.imm & 0xff);
    return E::zext(E::extract(imm_param_, 0, 8), 32);
}

ExprRef
Ctx::disp_v()
{
    return generic() ? disp_param_ : imm32(insn_.disp);
}

ExprRef
Ctx::effective_address()
{
    assert(insn_.is_memory_operand());
    ExprRef ea = disp_v();
    if (insn_.has_sib) {
        // Base register (none when base==5 with mod==0: disp32 only).
        if (!(insn_.base == 5 && insn_.mod == 0))
            ea = E::add(ea, gpr(insn_.base));
        // Index register (none when index==4).
        if (insn_.index != 4) {
            ea = E::add(ea, E::shl(gpr(insn_.index),
                                   imm32(insn_.scale)));
        }
    } else if (!(insn_.mod == 0 && insn_.rm == 5)) {
        ea = E::add(ea, gpr(insn_.rm));
    }
    return b_.assign(ea, "effective address");
}

ExprRef
Ctx::read_rm(unsigned width)
{
    if (insn_.mod == 3)
        return reg_operand(insn_.rm, width);
    return mem_read(effective_segment(), effective_address(),
                    width / 8);
}

ExprRef
Ctx::read_rm_for_write(unsigned width, std::optional<PreparedWrite> &pw)
{
    if (insn_.mod == 3) {
        pw.reset();
        return reg_operand(insn_.rm, width);
    }
    ExprRef ea = effective_address();
    const unsigned seg = effective_segment();
    // Read-modify-write destination: check for write up front so a
    // non-writable destination faults before any state changes.
    pw = prepare_write(seg, ea, width / 8);
    return b_.load(pw->host_addr, width / 8);
}

void
Ctx::write_rm_commit(const std::optional<PreparedWrite> &pw,
                     unsigned width, const ExprRef &v)
{
    if (pw) {
        commit_write(*pw, v);
    } else {
        set_reg_operand(insn_.rm, width, v);
    }
}

// ---------------------------------------------------------------------
// Flags.
// ---------------------------------------------------------------------

ExprRef
Ctx::parity(const ExprRef &res)
{
    ExprRef x = E::extract(res, 0, 8);
    x = E::bxor(x, E::lshr(x, E::constant(8, 4)));
    x = E::bxor(x, E::lshr(x, E::constant(8, 2)));
    x = E::bxor(x, E::lshr(x, E::constant(8, 1)));
    return E::lnot(bit_of(x, 0));
}

void
Ctx::write_flags(const FlagSet &f)
{
    u32 mask = 0;
    if (f.cf) mask |= arch::kFlagCf;
    if (f.pf) mask |= arch::kFlagPf;
    if (f.af) mask |= arch::kFlagAf;
    if (f.zf) mask |= arch::kFlagZf;
    if (f.sf) mask |= arch::kFlagSf;
    if (f.of) mask |= arch::kFlagOf;
    if (mask == 0)
        return;
    ExprRef fl = E::band(eflags(), imm32(~static_cast<u64>(mask)));
    auto add_bit = [&](const ExprRef &bit, unsigned pos) {
        if (bit)
            fl = E::bor(fl, E::shl(E::zext(bit, 32), imm32(pos)));
    };
    add_bit(f.cf, 0);
    add_bit(f.pf, 2);
    add_bit(f.af, 4);
    add_bit(f.zf, 6);
    add_bit(f.sf, 7);
    add_bit(f.of, 11);
    set_eflags(fl);
}

Ctx::FlagSet
Ctx::flags_logic(const ExprRef &res)
{
    FlagSet f;
    const unsigned w = res->width();
    f.cf = E::bool_const(false);
    f.of = E::bool_const(false);
    f.af = E::bool_const(false);
    f.pf = parity(res);
    f.zf = E::eq(res, E::constant(w, 0));
    f.sf = bit_of(res, w - 1);
    return f;
}

Ctx::FlagSet
Ctx::flags_add(const ExprRef &a, const ExprRef &b, const ExprRef &cin)
{
    const unsigned w = a->width();
    ExprRef wide = E::add(E::add(E::zext(a, w + 2), E::zext(b, w + 2)),
                          E::zext(cin, w + 2));
    ExprRef res = E::extract(wide, 0, w);
    FlagSet f;
    f.cf = bit_of(wide, w);
    // OF: operands agree in sign, result disagrees.
    f.of = E::land(E::lnot(E::bxor(bit_of(a, w - 1), bit_of(b, w - 1))),
                   E::bxor(bit_of(a, w - 1), bit_of(res, w - 1)));
    f.af = bit_of(E::bxor(E::bxor(a, b), res), 4);
    f.pf = parity(res);
    f.zf = E::eq(res, E::constant(w, 0));
    f.sf = bit_of(res, w - 1);
    return f;
}

Ctx::FlagSet
Ctx::flags_sub(const ExprRef &a, const ExprRef &b, const ExprRef &bin)
{
    const unsigned w = a->width();
    ExprRef wide = E::sub(E::sub(E::zext(a, w + 2), E::zext(b, w + 2)),
                          E::zext(bin, w + 2));
    ExprRef res = E::extract(wide, 0, w);
    FlagSet f;
    f.cf = bit_of(wide, w); // Borrow out.
    f.of = E::land(E::bxor(bit_of(a, w - 1), bit_of(b, w - 1)),
                   E::bxor(bit_of(a, w - 1), bit_of(res, w - 1)));
    f.af = bit_of(E::bxor(E::bxor(a, b), res), 4);
    f.pf = parity(res);
    f.zf = E::eq(res, E::constant(w, 0));
    f.sf = bit_of(res, w - 1);
    return f;
}

ExprRef
Ctx::cond_cc(unsigned cc)
{
    ExprRef fl = b_.assign(eflags(), "eflags for cc");
    const ExprRef cf = bit_of(fl, 0);
    const ExprRef pf = bit_of(fl, 2);
    const ExprRef zf = bit_of(fl, 6);
    const ExprRef sf = bit_of(fl, 7);
    const ExprRef of = bit_of(fl, 11);
    ExprRef base;
    switch (cc >> 1) {
      case 0: base = of; break;                        // o / no
      case 1: base = cf; break;                        // b / nb
      case 2: base = zf; break;                        // z / nz
      case 3: base = E::lor(cf, zf); break;            // be / nbe
      case 4: base = sf; break;                        // s / ns
      case 5: base = pf; break;                        // p / np
      case 6: base = E::bxor(sf, of); break;           // l / nl
      case 7: base = E::lor(zf, E::bxor(sf, of)); break; // le / nle
      default: panic("bad cc");
    }
    return (cc & 1) ? E::lnot(base) : base;
}

// ---------------------------------------------------------------------
// Stack.
// ---------------------------------------------------------------------

void
Ctx::push32(const ExprRef &value)
{
    ExprRef esp = gpr(arch::kEsp);
    ExprRef new_esp = b_.assign(E::sub(esp, imm32(4)), "new esp");
    mem_write(arch::kSs, new_esp, 4, value);
    set_gpr(arch::kEsp, new_esp);
}

ExprRef
Ctx::stack_read(const ExprRef &esp_offset, unsigned size)
{
    ExprRef esp = gpr(arch::kEsp);
    return mem_read(arch::kSs, E::add(esp, esp_offset), size);
}

// ---------------------------------------------------------------------
// Completion.
// ---------------------------------------------------------------------

void
Ctx::commit_eip_advance()
{
    ExprRef eip = ld32(layout::kEipAddr);
    st32(layout::kEipAddr, E::add(eip, imm32(insn_.length)));
}

void
Ctx::set_eip(const ExprRef &target)
{
    st32(layout::kEipAddr, target);
}

void
Ctx::done()
{
    commit_eip_advance();
    b_.halt(kHaltOk);
}

// ---------------------------------------------------------------------
// Segment loading.
// ---------------------------------------------------------------------

void
Ctx::load_segment(unsigned s, const ExprRef &selector)
{
    ExprRef sel = b_.assign(selector, "new selector");
    const ExprRef sel32 = E::zext(sel, 32);
    const ExprRef index = E::lshr(sel32, imm32(3));
    const ExprRef is_null =
        E::eq(E::band(sel, E::constant(16, 0xfffc)), E::constant(16, 0));

    Label finish = b_.label();
    if (s == arch::kSs) {
        // Loading SS with a null selector faults immediately.
        fault_if(is_null, arch::kExcGp, imm32(0), true);
    } else {
        Label null_load = b_.label(), real_load = b_.label();
        b_.cjmp(is_null, null_load, real_load, "null selector");
        b_.bind(null_load);
        // Null selector: mark the cache unusable (clear present).
        st16(layout::seg_addr(s, layout::kSegSelector), sel);
        st32(layout::seg_addr(s, layout::kSegBase), imm32(0));
        st32(layout::seg_addr(s, layout::kSegLimit), imm32(0));
        st8(layout::seg_addr(s, layout::kSegAccess), E::constant(8, 0));
        st8(layout::seg_addr(s, layout::kSegDb), E::constant(8, 0));
        b_.jmp(finish);
        b_.bind(real_load);
    }

    // TI=1 (LDT) is outside the subset: #GP(selector).
    fault_if(E::eq(bit_of(sel, 2), E::bool_const(true)), arch::kExcGp,
             E::band(sel32, imm32(0xfffc)), true);
    // Index must be inside the GDT limit: index*8 + 7 <= gdtr.limit.
    ExprRef gdt_limit = E::zext(ld16(layout::kGdtrLimitAddr), 32);
    fault_if(E::ult(gdt_limit,
                    E::add(E::shl(index, imm32(3)), imm32(7))),
             arch::kExcGp, E::band(sel32, imm32(0xfffc)), true);

    // Read the 8 descriptor bytes (via physical memory: the GDT base
    // is a linear address; the subset requires it to be identity-
    // mapped, as the baseline sets up).
    ExprRef gdt_base = ld32(layout::kGdtrBaseAddr);
    ExprRef desc_addr = b_.assign(
        E::add(imm32(layout::kGuestPhysBase),
               E::band(E::add(gdt_base, E::shl(index, imm32(3))),
                       imm32(arch::kPhysMemSize - 1))),
        "descriptor address");

    ExprRef b0 = b_.load(E::add(desc_addr, imm32(0)), 1);
    ExprRef b1 = b_.load(E::add(desc_addr, imm32(1)), 1);
    ExprRef b2 = b_.load(E::add(desc_addr, imm32(2)), 1);
    ExprRef b3 = b_.load(E::add(desc_addr, imm32(3)), 1);
    ExprRef b4 = b_.load(E::add(desc_addr, imm32(4)), 1);
    ExprRef b5 = b_.load(E::add(desc_addr, imm32(5)), 1);
    ExprRef b6 = b_.load(E::add(desc_addr, imm32(6)), 1);
    ExprRef b7 = b_.load(E::add(desc_addr, imm32(7)), 1);

    ExprRef base_out, limit_out, access_out, db_out, fault_class;
    if (opt_.descriptor_summary) {
        // Substitute the pre-computed summary (paper §3.3.2): map the
        // helper's input variables (desc byte i) to our loaded bytes.
        const symexec::Summary &sum = *opt_.descriptor_summary;
        assert(sum.outputs.size() == 5);
        const ExprRef bytes[8] = {b0, b1, b2, b3, b4, b5, b6, b7};
        auto instantiate = [&](const ExprRef &tmpl) {
            return ir::substitute(
                tmpl, [&](const ir::Expr &leaf) -> ExprRef {
                    if (leaf.kind() != ir::ExprKind::Var)
                        return nullptr;
                    // Helper input vars are named desc_byte_<i>.
                    const std::string &n = leaf.name();
                    if (n.rfind("desc_byte_", 0) == 0) {
                        const unsigned i = n[10] - '0';
                        assert(i < 8);
                        return bytes[i];
                    }
                    return nullptr;
                });
        };
        base_out = b_.assign(instantiate(sum.outputs[0]), "sum base");
        limit_out = b_.assign(instantiate(sum.outputs[1]), "sum limit");
        access_out = b_.assign(instantiate(sum.outputs[2]),
                               "sum access");
        db_out = b_.assign(instantiate(sum.outputs[3]), "sum db");
        fault_class = b_.assign(instantiate(sum.outputs[4]),
                                "sum fault class");
    } else {
        // Inline descriptor parse with interpreter-style control flow
        // (the multi-path computation the summary replaces: each run
        // through a segment load multiplies the search space, which is
        // exactly what §3.3.2 avoids).
        const u32 scratch_limit = layout::kInsnBufBase + 0x30;
        const u32 scratch_class = layout::kInsnBufBase + 0x34;
        ExprRef limit_raw = b_.assign(
            E::bor(E::zext(E::concat(b1, b0), 32),
                   E::shl(E::zext(E::band(b6, E::constant(8, 0x0f)),
                                  32),
                          imm32(16))),
            "raw limit");
        Label coarse = b_.label(), fine = b_.label(),
              limit_done = b_.label();
        b_.cjmp(bit_of(b6, 7), coarse, fine, "G bit");
        b_.bind(coarse);
        st32(scratch_limit,
             E::bor(E::shl(limit_raw, imm32(12)), imm32(0xfff)));
        b_.jmp(limit_done);
        b_.bind(fine);
        st32(scratch_limit, limit_raw);
        b_.jmp(limit_done);
        b_.bind(limit_done);
        limit_out = b_.assign(ld32(scratch_limit), "effective limit");

        base_out = b_.assign(
            E::bor(E::zext(b2, 32),
                   E::bor(E::shl(E::zext(b3, 32), imm32(8)),
                          E::bor(E::shl(E::zext(b4, 32), imm32(16)),
                                 E::shl(E::zext(b7, 32), imm32(24))))),
            "base");
        access_out = b_.assign(b5, "access");
        db_out = b_.assign(
            E::zext(bit_of(b6, 6), 8), "db");

        // Segment-kind-independent classification: 1 = system segment
        // (#GP), 2 = not present (#NP/#SS), 0 = code/data and present.
        // Branching control flow, as in the interpreter source.
        Label sys = b_.label(), not_sys = b_.label(),
              absent = b_.label(), present_l = b_.label(),
              class_done = b_.label();
        b_.cjmp(bit_of(access_out, 4), not_sys, sys, "S bit");
        b_.bind(sys);
        st8(scratch_class, E::constant(8, 1));
        b_.jmp(class_done);
        b_.bind(not_sys);
        b_.cjmp(bit_of(access_out, 7), present_l, absent, "P bit");
        b_.bind(absent);
        st8(scratch_class, E::constant(8, 2));
        b_.jmp(class_done);
        b_.bind(present_l);
        st8(scratch_class, E::constant(8, 0));
        b_.jmp(class_done);
        b_.bind(class_done);
        fault_class = b_.assign(ld8(scratch_class), "fault class");
    }

    // Segment-kind-specific type rules, applied uniformly to both the
    // inline and the summarized parse.
    {
        const ExprRef is_code = bit_of(access_out, 3);
        const ExprRef rw = bit_of(access_out, 1);
        ExprRef bad_type = E::eq(fault_class, E::constant(8, 1));
        if (s == arch::kSs) {
            // SS requires a writable data segment.
            bad_type = E::lor(bad_type,
                              E::lor(is_code, E::lnot(rw)));
        } else {
            // Data segments loadable; code only if readable.
            bad_type = E::lor(bad_type,
                              E::land(is_code, E::lnot(rw)));
        }
        fault_if(bad_type, arch::kExcGp,
                 E::band(sel32, imm32(0xfffc)), true);
        fault_if(E::eq(fault_class, E::constant(8, 2)),
                 s == arch::kSs ? arch::kExcSs : arch::kExcNp,
                 E::band(sel32, imm32(0xfffc)), true);
    }

    // Commit the cache and set the descriptor's accessed bit in
    // memory, as hardware does.
    st16(layout::seg_addr(s, layout::kSegSelector), sel);
    st32(layout::seg_addr(s, layout::kSegBase), base_out);
    st32(layout::seg_addr(s, layout::kSegLimit), limit_out);
    st8(layout::seg_addr(s, layout::kSegAccess),
        E::bor(access_out, E::constant(8, arch::kDescAccessed)));
    st8(layout::seg_addr(s, layout::kSegDb), db_out);
    b_.store(E::add(desc_addr, imm32(5)), 1,
             E::bor(b5, E::constant(8, arch::kDescAccessed)));
    b_.jmp(finish);

    b_.bind(finish);
    b_.comment("segment load complete");
}

// ---------------------------------------------------------------------
// Build entry.
// ---------------------------------------------------------------------

ir::Program
Ctx::build()
{
    if (opt_.generic_params) {
        // Entry-block param loads so every later use is dominated.
        // Unused ones are constant-address loads the optimizer's DCE
        // removes (build_compiled_units optimizes every unit).
        imm_param_ = b_.load(imm32(param_block::kImm), 4,
                             ir::ConcretizePolicy::SingleRandom,
                             "imm param");
        disp_param_ = b_.load(imm32(param_block::kDisp), 4,
                              ir::ConcretizePolicy::SingleRandom,
                              "disp param");
    }
    gen();
    flush_faults();
    return b_.finish();
}

ir::Program
build_semantics(const arch::DecodedInsn &insn,
                const SemanticsOptions &options)
{
    assert(insn.desc);
    Ctx ctx(insn, options);
    return ctx.build();
}

} // namespace pokeemu::hifi
