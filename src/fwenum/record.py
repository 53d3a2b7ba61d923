"""The one base of the package's immutable records."""


class Record:
    """Immutable record whose fields are its class's `__slots__`.

    Fields are given positionally in slot order or by name; a field given
    neither way takes its value from the class's `_defaults`.  Records compare
    and hash by identity unless the subclass defines otherwise, and copy and
    pickle by calling the class on their field values.
    """

    __slots__ = ()
    _defaults = {}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls.__slots__
        if kwargs or len(args) != len(fields):  # all-positional calls skip this
            name = cls.__name__
            if len(args) > len(fields):
                raise TypeError(f"{name} takes {len(fields)} fields {fields}, "
                                f"got {len(args)} positional arguments")
            for key in kwargs:
                if key not in fields:
                    raise TypeError(f"{name} has no field {key!r}")
                if fields.index(key) < len(args):
                    raise TypeError(f"{name} got field {key!r} twice")
            args = list(args)
            for field in fields[len(args):]:
                if field in kwargs:
                    args.append(kwargs[field])
                elif field in cls._defaults:
                    args.append(cls._defaults[field])
                else:
                    raise TypeError(f"{name} is missing field {field!r}")
        for field, value in zip(fields, args):
            object.__setattr__(self, field, value)

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # rebuild through the constructor, which takes the fields in slot order
        # (Mat2, QuadElem and ZetaPoly too; HomPoly overrides this); the
        # default slot-state restore would call __setattr__
        return type(self), tuple([getattr(self, field) for field in type(self).__slots__])
