#include "hifi/sequence.h"

#include "ir/builder.h"

namespace pokeemu::hifi {

using ir::ExprRef;
using ir::Program;
using ir::Stmt;
using ir::StmtKind;
namespace E = ir::E;
namespace layout = arch::layout;

namespace {

/** Rebase every Temp reference in @p expr by @p temp_offset. */
ExprRef
rebase_expr(const ExprRef &expr, u32 temp_offset)
{
    if (!expr || temp_offset == 0)
        return expr;
    return ir::substitute(expr, [&](const ir::Expr &leaf) -> ExprRef {
        if (leaf.kind() == ir::ExprKind::Temp) {
            return E::temp(leaf.temp_id() + temp_offset,
                           leaf.width());
        }
        return nullptr;
    });
}

} // namespace

Program
build_sequence_semantics(const std::vector<arch::DecodedInsn> &insns,
                         const SemanticsOptions &options)
{
    assert(!insns.empty());
    const u32 num_parts = static_cast<u32>(insns.size());

    // Build all per-instruction programs first so every offset is
    // known up front.
    std::vector<Program> parts;
    parts.reserve(num_parts);
    for (const auto &insn : insns)
        parts.push_back(build_semantics(insn, options));

    Program out;
    out.name = "sequence";
    for (const auto &insn : insns)
        out.name += std::string("_") + insn.desc->mnemonic;

    // Temp layout: [0] start eip, then per part: the part's temps
    // followed (for non-final parts) by one eip-check temp.
    std::vector<u32> temp_offset(num_parts);
    std::vector<u32> check_temp(num_parts);
    out.temp_width.push_back(32); // start eip
    for (u32 i = 0; i < num_parts; ++i) {
        temp_offset[i] = static_cast<u32>(out.temp_width.size());
        out.temp_width.insert(out.temp_width.end(),
                              parts[i].temp_width.begin(),
                              parts[i].temp_width.end());
        if (i + 1 < num_parts) {
            check_temp[i] = static_cast<u32>(out.temp_width.size());
            out.temp_width.push_back(32);
        }
    }

    // Label layout: [0..num_parts-1] part entries, [num_parts]
    // diverged exit, then each part's own labels.
    std::vector<u32> label_offset(num_parts);
    u32 next_label = num_parts + 1;
    for (u32 i = 0; i < num_parts; ++i) {
        label_offset[i] = next_label;
        next_label += parts[i].num_labels();
    }
    out.label_pos.assign(next_label, 0);

    // Capture the dynamic start EIP.
    {
        Stmt load_eip;
        load_eip.kind = StmtKind::Load;
        load_eip.temp = 0;
        load_eip.addr = E::constant(32, layout::kEipAddr);
        load_eip.size = 4;
        load_eip.note = "sequence start eip";
        out.stmts.push_back(std::move(load_eip));
    }
    const ExprRef start_eip = E::temp(0, 32);

    u32 cumulative_length = 0;
    for (u32 part = 0; part < num_parts; ++part) {
        const Program &p = parts[part];
        out.label_pos[part] = static_cast<u32>(out.stmts.size());
        cumulative_length += insns[part].length;

        // Per-statement index map (halt expansion shifts positions).
        std::vector<u32> new_index(p.stmts.size());
        for (std::size_t i = 0; i < p.stmts.size(); ++i) {
            new_index[i] = static_cast<u32>(out.stmts.size());
            const Stmt &orig = p.stmts[i];
            Stmt s = orig;
            s.expr = rebase_expr(s.expr, temp_offset[part]);
            s.addr = rebase_expr(s.addr, temp_offset[part]);
            if (s.kind == StmtKind::Assign || s.kind == StmtKind::Load)
                s.temp += temp_offset[part];
            if (s.kind == StmtKind::CJmp || s.kind == StmtKind::Jmp) {
                s.target_true += label_offset[part];
                if (s.kind == StmtKind::CJmp)
                    s.target_false += label_offset[part];
            }
            if (s.kind == StmtKind::Halt) {
                const bool normal = s.expr->is_const() &&
                                    s.expr->value() == kHaltOk;
                if (normal && part + 1 < num_parts) {
                    // Replace the normal completion with a
                    // fall-through check onto the next instruction.
                    Stmt load_eip;
                    load_eip.kind = StmtKind::Load;
                    load_eip.temp = check_temp[part];
                    load_eip.addr =
                        E::constant(32, layout::kEipAddr);
                    load_eip.size = 4;
                    load_eip.note = "post-insn eip";
                    out.stmts.push_back(std::move(load_eip));

                    Stmt check;
                    check.kind = StmtKind::CJmp;
                    check.expr = E::eq(
                        E::temp(check_temp[part], 32),
                        E::add(start_eip,
                               E::constant(32, cumulative_length)));
                    check.target_true = part + 1;
                    check.target_false = num_parts; // Diverged.
                    check.note = "fall-through?";
                    out.stmts.push_back(std::move(check));
                    continue;
                }
                // Tag the halt code with the instruction index.
                s.expr = E::bor(
                    s.expr,
                    E::constant(32, static_cast<u64>(part) << 16));
            }
            out.stmts.push_back(std::move(s));
        }
        for (u32 l = 0; l < p.num_labels(); ++l)
            out.label_pos[label_offset[part] + l] =
                new_index[p.label_pos[l]];
    }

    // Diverged exit.
    out.label_pos[num_parts] = static_cast<u32>(out.stmts.size());
    {
        Stmt halt;
        halt.kind = StmtKind::Halt;
        halt.expr = E::constant(32, kHaltDiverged);
        out.stmts.push_back(std::move(halt));
    }

    out.validate();
    return out;
}

} // namespace pokeemu::hifi
