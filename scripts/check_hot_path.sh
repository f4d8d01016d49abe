#!/bin/sh
# Checks that the interpreter's reference path compiled as designed
# (cpu/machine_hot.h, ucode/control_store.h), by reading the object files
# of a gcc RelWithDebInfo or Release build with objdump. `inline` alone
# does not prove that a call is gone; the disassembly does.
#
#  1. Executor::Dispatch calls neither Machine::Translate nor
#     Mmu::Translate: the TB-hit translation is inlined into it.
#  2. The patch's memory-access routine runs only for the store that
#     fills the record buffer. The store itself is inline
#     (ControlStore::FireMemAccess) and reaches the patch's OnMemAccess
#     only through ControlStore::CallMemAccessPatch, in its filling
#     branch. So the cpu and mmu objects must call that function, must
#     not call FireMemAccess out of line, and must hold no virtual
#     OnMemAccess call of their own (gcc names the routine it expects
#     when it devirtualizes one).
#  3. Machine::RefillIBuf calls exactly Mmu::Walk,
#     PhysicalMemory::OutOfRange, Machine::MicroReadProfiled and
#     ControlStore::CallMemAccessPatch, and makes no indirect call.
#
# Usage: scripts/check_hot_path.sh [BUILD_DIR]   (default: build)
# Exits 0 when all checks hold, 1 with one line per failure otherwise.
set -e
BUILD=${1:-build}
OBJS=$BUILD/src/CMakeFiles
EXECUTOR=$OBJS/atum_cpu.dir/cpu/executor.cc.o
MACHINE=$OBJS/atum_cpu.dir/cpu/machine.cc.o
EXCEPTIONS=$OBJS/atum_cpu.dir/cpu/exceptions.cc.o
MMU=$OBJS/atum_mmu.dir/mmu/mmu.cc.o
for o in "$EXECUTOR" "$MACHINE" "$EXCEPTIONS" "$MMU"; do
    if [ ! -f "$o" ]; then
        echo "check_hot_path: missing $o (build $BUILD first)" >&2
        exit 2
    fi
done
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
FAILED=0

fail() {
    echo "FAIL: $*" >&2
    FAILED=1
}

# callees OBJECT FUNCTION-PREFIX: one line per call or tail call made by
# every function whose demangled name starts with the prefix (its .cold
# part included): the callee's name, or "indirect".
callees() {
    objdump -dr --no-show-raw-insn -C "$1" | awk -v fn="$2" '
        /^[0-9a-f]+ <.*>:$/ {
            name = substr($0, index($0, "<") + 1)
            name = substr(name, 1, length(name) - 2)
            in_fn = index(name, fn) == 1
            branch = 0
            next
        }
        !in_fn { next }
        /R_X86_64_PLT32/ && branch {
            sym = substr($0, index($0, "R_X86_64_PLT32") + 15)
            sub(/[-+]0x[0-9a-f]+$/, "", sym)
            print sym
            branch = 0
            next
        }
        {
            # A call or jmp with a relocation names its callee on the
            # next line; a branch resolved within the object names it in
            # angle brackets, and one inside this function is no call.
            branch = 0
            if ($0 !~ /\t(call|jmp)q? /)
                next
            op = $0
            sub(/.*\t(call|jmp)q? +/, "", op)
            if (op ~ /^\*/) {
                if ($0 ~ /\tcallq? /)
                    print "indirect"
                next
            }
            branch = 1
            target = op
            sub(/^[0-9a-f]+ </, "", target)
            sub(/>$/, "", target)
            if ($0 ~ /\tcallq? / && index(target, name) != 1 &&
                target !~ /\+0x[0-9a-f]+$/)
                print target
        }'
}

# 1. No translate call in Dispatch.
callees "$EXECUTOR" "atum::cpu::Executor::Dispatch(" > "$TMP/dispatch"
if [ ! -s "$TMP/dispatch" ]; then
    fail "Executor::Dispatch not found in $EXECUTOR"
elif grep -Eq '(Machine|Mmu)::Translate[<(]' "$TMP/dispatch"; then
    fail "Executor::Dispatch calls $(grep -E '(Machine|Mmu)::Translate[<(]' \
        "$TMP/dispatch" | sort -u | tr '\n' ' ')"
fi

# 2. OnMemAccess only through CallMemAccessPatch.
for o in "$EXECUTOR" "$MACHINE" "$EXCEPTIONS" "$MMU"; do
    objdump -dr --no-show-raw-insn -C "$o" > "$TMP/dis"
    if ! grep -q 'ControlStore::CallMemAccessPatch' "$TMP/dis"; then
        fail "$(basename "$o") never calls ControlStore::CallMemAccessPatch"
    fi
    if grep -q 'R_X86_64_PLT32.*ControlStore::FireMemAccess' "$TMP/dis"; then
        fail "$(basename "$o") calls ControlStore::FireMemAccess out of line"
    fi
    if grep -q 'R_X86_64_.*::OnMemAccess(' "$TMP/dis"; then
        fail "$(basename "$o") makes a virtual OnMemAccess call of its own"
    fi
done
if ! grep -q 'ControlStore::CallMemAccessPatch' "$TMP/dispatch"; then
    fail "Executor::Dispatch never calls ControlStore::CallMemAccessPatch"
fi

# 3. RefillIBuf's callee list.
callees "$MACHINE" "atum::cpu::Machine::RefillIBuf(" | sed 's/(.*//' |
    sort -u > "$TMP/refill"
cat > "$TMP/refill.want" <<'EOF'
atum::PhysicalMemory::OutOfRange
atum::cpu::Machine::MicroReadProfiled
atum::mmu::Mmu::Walk
atum::ucode::ControlStore::CallMemAccessPatch
EOF
sort -o "$TMP/refill.want" "$TMP/refill.want"
if ! cmp -s "$TMP/refill" "$TMP/refill.want"; then
    fail "Machine::RefillIBuf calls $(tr '\n' ' ' < "$TMP/refill")" \
        "instead of $(tr '\n' ' ' < "$TMP/refill.want")"
fi

if [ "$FAILED" -ne 0 ]; then
    exit 1
fi
echo "check_hot_path: ok"
