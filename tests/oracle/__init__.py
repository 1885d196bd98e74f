"""Test-only reference implementations that production engines are
differentially tested against."""
