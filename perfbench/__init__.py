"""Seeded benchmark for the D-Memo cluster; see run.py."""
