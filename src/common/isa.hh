/**
 * @file
 * TWIG_ISA_VERSIONS is 1 when hot kernels are built once per x86-64
 * ISA level (GCC function multiversioning, resolved at load time by an
 * ifunc), else 0: only GCC on x86-64 builds them, and never under
 * ThreadSanitizer. TSan instruments the ifunc resolver, and resolvers
 * run during relocation, before the TSan runtime's thread state
 * exists, so a TSan build that linked a versioned function would crash
 * before main.
 */

#ifndef TWIG_COMMON_ISA_HH
#define TWIG_COMMON_ISA_HH

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__)
#define TWIG_ISA_VERSIONS 1
#else
#define TWIG_ISA_VERSIONS 0
#endif

#endif // TWIG_COMMON_ISA_HH
