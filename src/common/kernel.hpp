// Shared attribute macro for the lane-major hot kernels (extension).
//
// The SoA kernels (sd::modulator_bank, dut::state_space_bank,
// dsp::goertzel_lanes) are compiled three times where the toolchain
// supports it -- a baseline clone, an AVX2 clone (4 doubles per vector)
// and an AVX-512F clone (8 doubles per vector) -- and the widest clone
// the CPU runs is picked at load time via ifunc.
//
// What keeps every clone bit-identical to the scalar reference is the
// build's -ffp-contract=off (a PUBLIC compile option of the bistna
// target), not the choice of ISA: AVX-512F carries FMA, and with
// contraction allowed the compiler fuses a*b + c into one rounding where
// the scalar sd_modulator::step / state_space::step round twice.  With
// contraction off every clone performs the same IEEE 754 operations in
// the same order, so the bit-identity contract survives runtime dispatch
// on any ISA -- FMA-baseline targets such as aarch64 included.
//
// Sanitizer builds fall back to the plain function: target_clones emits an
// ifunc resolver that runs during relocation, before the ASan/TSan
// runtimes initialize (TSan crashes outright at startup).
#pragma once

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
#define BISTNA_KERNEL_CLONES __attribute__((target_clones("default", "avx2", "avx512f")))
#else
#define BISTNA_KERNEL_CLONES
#endif

// The 8-wide AVX-512F entry of a kernel written with generic vectors: a
// plain target("avx512f") function, picked at run time with
// cpu_has_avx512f() (no ifunc resolver, so sanitizer builds keep it).
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define BISTNA_KERNEL_AVX512 __attribute__((target("avx512f")))

namespace bistna {
inline bool cpu_has_avx512f() noexcept {
    static const bool has = __builtin_cpu_supports("avx512f");
    return has;
}
} // namespace bistna
#endif
