"""Sanitizer build mode: ``REPRO_CC_SANITIZE`` must reshape both the
compile command and the kernel cache key, so a sanitized and an
optimized kernel never collide in the cache."""

from __future__ import annotations

from repro.engine import build


class TestSanitizeFlags:
    def test_unset_means_no_flags(self, monkeypatch):
        monkeypatch.delenv("REPRO_CC_SANITIZE", raising=False)
        assert build.sanitize_flags() == ()

    def test_parses_comma_list(self, monkeypatch):
        monkeypatch.setenv("REPRO_CC_SANITIZE", "address,undefined")
        flags = build.sanitize_flags()
        assert "-fsanitize=address" in flags
        assert "-fsanitize=undefined" in flags
        assert "-g" in flags
        assert "-fno-sanitize-recover=all" in flags

    def test_whitespace_and_empty_parts_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_CC_SANITIZE", " undefined , ")
        assert build.sanitize_flags()[0] == "-fsanitize=undefined"
        monkeypatch.setenv("REPRO_CC_SANITIZE", "   ")
        assert build.sanitize_flags() == ()


class TestCacheKey:
    def test_sanitize_mode_changes_kernel_path(self, monkeypatch):
        monkeypatch.delenv("REPRO_CC_SANITIZE", raising=False)
        plain = build.kernel_path()
        monkeypatch.setenv("REPRO_CC_SANITIZE", "address,undefined")
        asan_ubsan = build.kernel_path()
        monkeypatch.setenv("REPRO_CC_SANITIZE", "undefined")
        ubsan = build.kernel_path()
        assert len({plain, asan_ubsan, ubsan}) == 3

    def test_key_is_stable_for_a_given_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_CC_SANITIZE", "undefined")
        assert build.kernel_path() == build.kernel_path()


def _fake_compiler(directory, name):
    path = directory / name
    path.write_text("#!/bin/sh\nexit 1\n")
    path.chmod(0o755)
    return path


class TestCompilerAndFlagsKey:
    """The cache key covers the resolved compiler and every build flag,
    so a different ``$CC`` or base flag list never reuses a stale .so."""

    def test_compiler_changes_kernel_path(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_CC_SANITIZE", raising=False)
        monkeypatch.setenv("CC", str(_fake_compiler(tmp_path, "cc-a")))
        first = build.kernel_path()
        monkeypatch.setenv("CC", str(_fake_compiler(tmp_path, "cc-b")))
        assert build.kernel_path() != first

    def test_symlinked_compiler_keys_by_its_target(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_CC_SANITIZE", raising=False)
        target = _fake_compiler(tmp_path, "cc-a")
        link = tmp_path / "cc"
        link.symlink_to(target)
        monkeypatch.setenv("CC", str(target))
        direct = build.kernel_path()
        monkeypatch.setenv("CC", str(link))
        assert build.kernel_path() == direct
        link.unlink()
        link.symlink_to(_fake_compiler(tmp_path, "cc-b"))
        assert build.kernel_path() != direct

    def test_base_flags_change_kernel_path(self, monkeypatch):
        monkeypatch.delenv("REPRO_CC_SANITIZE", raising=False)
        plain = build.kernel_path()
        monkeypatch.setattr(build, "_BASE_FLAGS", ("-O3", "-fPIC", "-shared"))
        assert build.build_flags()[0] == "-O3"
        assert build.kernel_path() != plain

    def test_key_is_stable_for_one_compiler_and_flag_list(self, monkeypatch):
        monkeypatch.delenv("REPRO_CC_SANITIZE", raising=False)
        first = build.kernel_path()
        assert build.kernel_path() == first
        monkeypatch.setenv("CC", build._find_compiler())
        assert build.kernel_path() == first
